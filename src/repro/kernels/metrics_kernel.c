/* Compiled fast engine for the incremental mapping-cost tracker.
 *
 * Mirrors the Python engines of repro/graphs/metrics.py (MappingCostTracker)
 * over flat arrays: segment endpoints seg[m*4] = (p_row, p_col, q_row, q_col),
 * midpoints mid[m*2], edge endpoint vertices eu/ev[m], per-edge full
 * midpoint-distance row sums R[m], and a dense clamped bucket grid
 * (cell_count / cell_items).
 *
 * Bitwise discipline (the compiled and scalar engines must agree on every
 * bit of every float they produce):
 *
 *  - distances are sqrt(dr*dr + dc*dc) -- IEEE correctly-rounded ops only,
 *    never hypot() (library-dependent rounding);
 *  - every reduction over an m-length row is a binary tree fold over the
 *    row zero-padded to the power-of-two length `pad` (identical to the
 *    Python list halving);
 *  - the build ships with -ffp-contract=off so the compiler cannot fuse
 *    the multiply-adds above into FMAs the Python engines do not perform.
 *
 * The crossing predicates replicate the arithmetic of _orientation /
 * _on_segment / _segments_cross exactly (same products, same 1e-12
 * tolerances), so crossing counts agree with the Python engines on every
 * input of the tracker's domain: integer cell coordinates, on which the
 * predicates are exact.  The grid registers each segment in the cells its
 * band walk touches (band_walk_start/band_walk_next: per bucket row, the
 * columns the segment crosses inside that row band), not in every cell of
 * its bounding box as the scalar engine's dict grid does, and cells beyond
 * the grid clamp onto its border.  Candidate sets therefore differ between
 * the engines, but candidates are only pruning: two segments the exact
 * predicates count share a point, and that point's cell lies on both band
 * walks, so the counted pair set is identical.
 *
 * int-params array ip = { m, pad, origin_row, origin_col, n_rows, n_cols,
 * cap }.  All functions are single-threaded over caller-owned buffers.
 *
 * mc_sweep (at the end) runs a whole force-directed annealing sweep over
 * this state: the proposal order (a replica of CPython's random.shuffle),
 * the force pass and steps (mc_forces) and the proposal loop of
 * repro.mapping.force_directed, with a replica of CPython's random.random()
 * for the Boltzmann test.  Cells, occupancy and the generator state stay
 * in the caller's buffers from one sweep to the next.  Each proposal
 * bounds its spacing term and counts its new crossings only until the
 * partial count settles the Boltzmann test (see Settle); it skips the k
 * distance rows whenever the bound already rejects the move.  mc_hop_sweep
 * (after it) runs one sweep of the permutation-hop annealer of
 * repro.mapping.stitching on the same crossing predicates.  mc_bisect (at
 * the end) runs the multilevel graph bisection of repro.graphs.partition,
 * the one part of this file that allocates: each coarse level is malloc'ed
 * and freed within the call.
 */

#include <float.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

#define TOL 1e-12

/* ------------------------------------------------------------------ */
/* Canonical float helpers                                             */
/* ------------------------------------------------------------------ */

static double dist2d(double ar, double ac, double br, double bc) {
    double dr = ar - br;
    double dc = ac - bc;
    return sqrt(dr * dr + dc * dc);
}

/* Binary tree fold of scratch[0..m) zero-padded to pad (a power of two). */
static double treefold(double *scratch, int64_t m, int64_t pad) {
    int64_t i, len, half;
    for (i = m; i < pad; i++) {
        scratch[i] = 0.0;
    }
    for (len = pad; len > 1; len = half) {
        half = len >> 1;
        for (i = 0; i < half; i++) {
            scratch[i] = scratch[2 * i] + scratch[2 * i + 1];
        }
    }
    return scratch[0];
}

/* ------------------------------------------------------------------ */
/* Crossing predicates (exact replicas of the Python arithmetic)       */
/* ------------------------------------------------------------------ */

static int orientation(double pr, double pc, double qr, double qc,
                       double rr, double rc) {
    double value = (qc - pc) * (rr - qr) - (qr - pr) * (rc - qc);
    if (fabs(value) < TOL) {
        return 0;
    }
    return value > 0 ? 1 : 2;
}

static int on_segment(double pr, double pc, double qr, double qc,
                      double rr, double rc) {
    double row_lo = pr < rr ? pr : rr;
    double row_hi = pr < rr ? rr : pr;
    double col_lo = pc < rc ? pc : rc;
    double col_hi = pc < rc ? rc : pc;
    return (row_lo - TOL <= qr && qr <= row_hi + TOL
            && col_lo - TOL <= qc && qc <= col_hi + TOL);
}

static int segments_cross(const double *a, const double *b) {
    int o1 = orientation(a[0], a[1], a[2], a[3], b[0], b[1]);
    int o2 = orientation(a[0], a[1], a[2], a[3], b[2], b[3]);
    int o3 = orientation(b[0], b[1], b[2], b[3], a[0], a[1]);
    int o4 = orientation(b[0], b[1], b[2], b[3], a[2], a[3]);
    if (o1 != o2 && o3 != o4) {
        return 1;
    }
    if (o1 == 0 && on_segment(a[0], a[1], b[0], b[1], a[2], a[3])) {
        return 1;
    }
    if (o2 == 0 && on_segment(a[0], a[1], b[2], b[3], a[2], a[3])) {
        return 1;
    }
    if (o3 == 0 && on_segment(b[0], b[1], a[0], a[1], b[2], b[3])) {
        return 1;
    }
    if (o4 == 0 && on_segment(b[0], b[1], a[2], a[3], b[2], b[3])) {
        return 1;
    }
    return 0;
}

/* Bounding-box rejection with the collinearity tolerance as margin. */
static int bbox_reject(const double *query_seg, const double *other_seg) {
    double row_lo = (query_seg[0] < query_seg[2] ? query_seg[0] : query_seg[2]) - TOL;
    double row_hi = (query_seg[0] < query_seg[2] ? query_seg[2] : query_seg[0]) + TOL;
    double col_lo = (query_seg[1] < query_seg[3] ? query_seg[1] : query_seg[3]) - TOL;
    double col_hi = (query_seg[1] < query_seg[3] ? query_seg[3] : query_seg[1]) + TOL;
    double o_row_lo = other_seg[0] < other_seg[2] ? other_seg[0] : other_seg[2];
    double o_row_hi = other_seg[0] < other_seg[2] ? other_seg[2] : other_seg[0];
    double o_col_lo = other_seg[1] < other_seg[3] ? other_seg[1] : other_seg[3];
    double o_col_hi = other_seg[1] < other_seg[3] ? other_seg[3] : other_seg[1];
    return (o_row_hi < row_lo || o_row_lo > row_hi
            || o_col_hi < col_lo || o_col_lo > col_hi);
}

/* ------------------------------------------------------------------ */
/* Dense clamped cell grid, walked band by band                        */
/* ------------------------------------------------------------------ */

/* floor(x) clamped to [lo, hi]; NaN clamps to lo.  Clamping in doubles
 * keeps the int64 conversion defined for any coordinate. */
static int64_t cell_of(double x, int64_t lo, int64_t hi) {
    double cell = floor(x);
    if (!(cell > (double)lo)) {
        return lo;
    }
    if (cell >= (double)hi) {
        return hi;
    }
    return (int64_t)cell;
}

/* The cells of one segment, one bucket row at a time.  Coordinates are
 * divided by the bucket once, so row r's band is exactly [r, r + 1]; a
 * border row's band is unbounded on its outer side, because clamping
 * folds every band beyond the border into it.  Each row's column span is
 * the segment clipped to the band, its two ends interpolated, widened by
 * eps, floored, and clamped into the bounding box's columns and the grid.
 *
 * Why this is sound for crossings: a pair the exact predicates count
 * shares a point X.  Let x = X / bucket rounded to doubles (rounding is
 * monotone, so x lies inside both segments' computed row ranges and
 * column ranges).  Both walks visit row floor(x_row), clamped, and both
 * bands contain x_row exactly.  At x_row each walk's interpolated column
 * is within a few ulps of the coordinates' magnitude, times (1 + slope),
 * of x_col, which eps covers many times over; so both spans contain
 * floor(x_col), clamped.
 * Insert, remove, query and mc_count_crossings all walk through here. */
typedef struct {
    double r0, c0, r1, slope, eps; /* bucket units, r0 <= r1 */
    int64_t next, last;             /* next row to visit, last row */
    int64_t col_min, col_max;       /* bounding-box columns */
    int64_t origin_row, last_row, origin_col, last_col;
    int64_t row, col_lo, col_hi;    /* the visited row and its span */
} BandWalk;

static void band_walk_start(BandWalk *w, const double *seg, double bucket,
                            const int64_t *ip) {
    double pr = seg[0] / bucket, pc = seg[1] / bucket;
    double qr = seg[2] / bucket, qc = seg[3] / bucket;
    double c1, mag;
    w->origin_row = ip[2];
    w->last_row = ip[2] + ip[4] - 1;
    w->origin_col = ip[3];
    w->last_col = ip[3] + ip[5] - 1;
    if (pr <= qr) {
        w->r0 = pr;
        w->c0 = pc;
        w->r1 = qr;
        c1 = qc;
    } else {
        w->r0 = qr;
        w->c0 = qc;
        w->r1 = pr;
        c1 = pc;
    }
    w->slope = w->r1 > w->r0 ? (c1 - w->c0) / (w->r1 - w->r0) : 0.0;
    mag = fabs(pr) + fabs(pc) + fabs(qr) + fabs(qc) + 1.0;
    w->eps = 1e-7 + 1e-12 * mag * (1.0 + fabs(w->slope));
    w->next = cell_of(w->r0, w->origin_row, w->last_row);
    w->last = cell_of(w->r1, w->origin_row, w->last_row);
    w->col_min = cell_of(pc < qc ? pc : qc, w->origin_col, w->last_col);
    w->col_max = cell_of(pc < qc ? qc : pc, w->origin_col, w->last_col);
}

/* Advance to the next row w->row and its span [col_lo, col_hi]; returns
 * 0 when the walk is done. */
static int band_walk_next(BandWalk *w) {
    int64_t row = w->next;
    double lo, hi, a, b, lo_col, hi_col;
    if (row > w->last) {
        return 0;
    }
    w->row = row;
    w->next = row + 1;
    w->col_lo = w->col_min;
    w->col_hi = w->col_max;
    if (!(w->r1 > w->r0)) {
        return 1; /* one row holds the whole segment */
    }
    lo = row == w->origin_row || w->r0 > (double)row ? w->r0 : (double)row;
    hi = row == w->last_row || w->r1 < (double)(row + 1) ? w->r1
                                                         : (double)(row + 1);
    a = w->c0 + (lo - w->r0) * w->slope;
    b = w->c0 + (hi - w->r0) * w->slope;
    lo_col = (a < b ? a : b) - w->eps;
    hi_col = (a < b ? b : a) + w->eps;
    if (lo_col <= hi_col) { /* a NaN span keeps the whole bounding box */
        int64_t first = cell_of(lo_col, w->origin_col, w->last_col);
        int64_t last = cell_of(hi_col, w->origin_col, w->last_col);
        if (first > w->col_lo) {
            w->col_lo = first;
        }
        if (last < w->col_hi) {
            w->col_hi = last;
        }
    }
    return 1;
}

static int64_t grid_insert(int64_t edge, const double *seg, double bucket,
                           const int64_t *ip, int64_t *cell_count,
                           int64_t *cell_items) {
    int64_t origin_row = ip[2], origin_col = ip[3];
    int64_t n_cols = ip[5], cap = ip[6];
    int64_t col;
    BandWalk w;
    band_walk_start(&w, seg, bucket, ip);
    while (band_walk_next(&w)) {
        int64_t base = (w.row - origin_row) * n_cols - origin_col;
        for (col = w.col_lo; col <= w.col_hi; col++) {
            int64_t cell = base + col;
            if (cell_count[cell] >= cap) {
                return -1;
            }
            cell_items[cell * cap + cell_count[cell]] = edge;
            cell_count[cell] += 1;
        }
    }
    return 0;
}

static void grid_remove(int64_t edge, const double *seg, double bucket,
                        const int64_t *ip, int64_t *cell_count,
                        int64_t *cell_items) {
    int64_t origin_row = ip[2], origin_col = ip[3];
    int64_t n_cols = ip[5], cap = ip[6];
    int64_t col, slot;
    BandWalk w;
    band_walk_start(&w, seg, bucket, ip);
    while (band_walk_next(&w)) {
        int64_t base = (w.row - origin_row) * n_cols - origin_col;
        for (col = w.col_lo; col <= w.col_hi; col++) {
            int64_t cell = base + col;
            int64_t count = cell_count[cell];
            for (slot = 0; slot < count; slot++) {
                if (cell_items[cell * cap + slot] == edge) {
                    cell_items[cell * cap + slot] =
                        cell_items[cell * cap + count - 1];
                    cell_count[cell] = count - 1;
                    break;
                }
            }
        }
    }
}

/* Build the whole grid from seg; returns -1 when a cell overflows cap. */
int64_t mc_grid_build(const int64_t *ip, const double *seg, double bucket,
                      int64_t *cell_count, int64_t *cell_items) {
    int64_t m = ip[0], n_cells = ip[4] * ip[5];
    int64_t i;
    for (i = 0; i < n_cells; i++) {
        cell_count[i] = 0;
    }
    for (i = 0; i < m; i++) {
        if (grid_insert(i, seg + 4 * i, bucket, ip, cell_count,
                        cell_items) != 0) {
            return -1;
        }
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Initialization                                                      */
/* ------------------------------------------------------------------ */

/* Fill R with per-edge full midpoint-distance row sums (tree-folded; the
 * self term is sqrt(0) = 0) and return the pairwise spacing sum, which is
 * exactly half the (tree-folded) total of R. */
double mc_spacing_init(const int64_t *ip, const double *mid, double *R,
                       double *scratch) {
    int64_t m = ip[0], pad = ip[1];
    int64_t i, j;
    for (i = 0; i < m; i++) {
        double row = mid[2 * i], col = mid[2 * i + 1];
        for (j = 0; j < m; j++) {
            scratch[j] = dist2d(row, col, mid[2 * j], mid[2 * j + 1]);
        }
        R[i] = treefold(scratch, m, pad);
    }
    for (i = 0; i < m; i++) {
        scratch[i] = R[i];
    }
    return treefold(scratch, m, pad) * 0.5;
}

/* Total crossing count over the built grid: each unordered pair is tested
 * once, when the higher-indexed edge queries (matching the Python
 * insert-after-query construction).  Also fills crossC[i] with the number
 * of crossings edge i participates in — the per-edge cache that lets move
 * evaluation skip re-scanning old segments. */
int64_t mc_count_crossings(const int64_t *ip, const double *seg,
                           double bucket, const int64_t *eu,
                           const int64_t *ev, const int64_t *cell_count,
                           const int64_t *cell_items, int64_t *stamp,
                           int64_t *gen, int64_t *crossC) {
    int64_t m = ip[0];
    int64_t origin_row = ip[2], origin_col = ip[3];
    int64_t n_cols = ip[5], cap = ip[6];
    int64_t crossings = 0;
    int64_t i, col, slot;
    for (i = 0; i < m; i++) {
        crossC[i] = 0;
    }
    for (i = 0; i < m; i++) {
        int64_t g = ++(*gen);
        BandWalk w;
        band_walk_start(&w, seg + 4 * i, bucket, ip);
        while (band_walk_next(&w)) {
            int64_t base = (w.row - origin_row) * n_cols - origin_col;
            for (col = w.col_lo; col <= w.col_hi; col++) {
                int64_t cell = base + col;
                int64_t count = cell_count[cell];
                for (slot = 0; slot < count; slot++) {
                    int64_t other = cell_items[cell * cap + slot];
                    if (other >= i || stamp[other] == g) {
                        continue;
                    }
                    stamp[other] = g;
                    if (eu[i] == eu[other] || eu[i] == ev[other]
                        || ev[i] == eu[other] || ev[i] == ev[other]) {
                        continue;
                    }
                    if (bbox_reject(seg + 4 * i, seg + 4 * other)) {
                        continue;
                    }
                    if (segments_cross(seg + 4 * i, seg + 4 * other)) {
                        crossings += 1;
                        crossC[i] += 1;
                        crossC[other] += 1;
                    }
                }
            }
        }
    }
    return crossings;
}

/* ------------------------------------------------------------------ */
/* Move evaluation                                                     */
/* ------------------------------------------------------------------ */

/* A sweep proposal's Boltzmann test while its new crossings are counted:
 * the pieces of its lower bound (delta_lower_bound), the count at which
 * the test settles next, and the oracle's draw once it is made.  See
 * mc_sweep. */
typedef struct {
    const double *dp;
    int64_t m;
    double total_length;  /* after the move */
    double low, high;     /* the spacing sum's interval after the move */
    int64_t base;         /* crossings after the move, less new grid ones */
    int64_t most;         /* the most new grid crossings the move can have */
    double temperature;
    uint32_t *mt;
    int64_t *mt_index;
    int drawn;
    double draw;
    int64_t found;        /* new grid crossings of the finished queries */
    int64_t stop;         /* count at which settle_step acts; NEVER: none */
} Settle;

static int settle_step(Settle *s, int64_t found);

/* Crossings of one query segment against the grid, skipping every changed
 * edge (cflag[edge] != 0; changed-vs-changed pairs are enumerated
 * separately).  When cross_adjust is non-NULL, every crossing partner has
 * cross_adjust[other] bumped by delta — the commit path uses this to keep
 * the per-edge crossing-count cache current.  When settle is non-NULL the
 * query stops, returning -1, as soon as settle_step rejects the proposal
 * at the running count settle->found + crossings so far. */
static int64_t cross_vs_grid(const double *query_seg, double bucket,
                             int64_t self_u, int64_t self_v,
                             const int64_t *cflag,
                             const int64_t *ip, const double *seg,
                             const int64_t *eu, const int64_t *ev,
                             const int64_t *cell_count,
                             const int64_t *cell_items,
                             int64_t *stamp, int64_t *gen,
                             int64_t *cross_adjust, int64_t delta,
                             Settle *settle) {
    int64_t origin_row = ip[2], origin_col = ip[3];
    int64_t n_cols = ip[5], cap = ip[6];
    int64_t count_crossing = 0;
    int64_t g = ++(*gen);
    int64_t col, slot;
    BandWalk w;
    double q_row_lo = (query_seg[0] < query_seg[2] ? query_seg[0]
                                                   : query_seg[2]) - TOL;
    double q_row_hi = (query_seg[0] < query_seg[2] ? query_seg[2]
                                                   : query_seg[0]) + TOL;
    double q_col_lo = (query_seg[1] < query_seg[3] ? query_seg[1]
                                                   : query_seg[3]) - TOL;
    double q_col_hi = (query_seg[1] < query_seg[3] ? query_seg[3]
                                                   : query_seg[1]) + TOL;
    band_walk_start(&w, query_seg, bucket, ip);
    while (band_walk_next(&w)) {
        int64_t base = (w.row - origin_row) * n_cols - origin_col;
        for (col = w.col_lo; col <= w.col_hi; col++) {
            int64_t cell = base + col;
            int64_t count = cell_count[cell];
            for (slot = 0; slot < count; slot++) {
                int64_t other = cell_items[cell * cap + slot];
                if (stamp[other] == g) {
                    continue;
                }
                stamp[other] = g;
                if (cflag[other]) {
                    continue;
                }
                if (self_u == eu[other] || self_u == ev[other]
                    || self_v == eu[other] || self_v == ev[other]) {
                    continue;
                }
                {
                    const double *o = seg + 4 * other;
                    double o_row_lo = o[0] < o[2] ? o[0] : o[2];
                    double o_row_hi = o[0] < o[2] ? o[2] : o[0];
                    double o_col_lo = o[1] < o[3] ? o[1] : o[3];
                    double o_col_hi = o[1] < o[3] ? o[3] : o[1];
                    if (o_row_hi < q_row_lo || o_row_lo > q_row_hi
                        || o_col_hi < q_col_lo || o_col_lo > q_col_hi) {
                        continue;
                    }
                }
                if (segments_cross(query_seg, seg + 4 * other)) {
                    count_crossing += 1;
                    if (cross_adjust) {
                        cross_adjust[other] += delta;
                    }
                    if (settle
                        && settle_step(settle, settle->found + count_crossing)) {
                        return -1;
                    }
                }
            }
        }
    }
    return count_crossing;
}

/* Changed-vs-changed crossing block (no bbox pruning, like the Python
 * engines; the block is tiny). */
static int64_t cross_intra(const double *segs, const int64_t *changed,
                           int64_t k, const int64_t *eu, const int64_t *ev) {
    int64_t count_crossing = 0;
    int64_t t, u;
    for (t = 0; t < k; t++) {
        int64_t i = changed[t];
        for (u = t + 1; u < k; u++) {
            int64_t j = changed[u];
            if (eu[i] == eu[j] || eu[i] == ev[j]
                || ev[i] == eu[j] || ev[i] == ev[j]) {
                continue;
            }
            if (segments_cross(segs + 4 * t, segs + 4 * u)) {
                count_crossing += 1;
            }
        }
    }
    return count_crossing;
}

/* The crossings of one move of k edges that need no grid query:
 * cross_out[0] = the old crossings touching a changed edge, and
 * cross_out[1] = the new changed-vs-changed crossings.  The old count
 * comes from the per-edge crossing cache crossC (maintained by
 * mc_commit): the sum over changed edges counts changed-vs-changed pairs
 * twice, so one old intra block is subtracted back out — exact integer
 * arithmetic, identical to re-scanning the old segments. */
static void cached_crossings(int64_t k, const int64_t *changed,
                             const double *newseg, const double *seg,
                             const int64_t *eu, const int64_t *ev,
                             const int64_t *crossC, double *scratch,
                             int64_t *cross_out) {
    int64_t t;
    int64_t old_crossings = 0;
    for (t = 0; t < k; t++) {
        int64_t i = changed[t];
        old_crossings += crossC[i];
        /* The old intra block reads the changed edges' current segments. */
        scratch[4 * t] = seg[4 * i];
        scratch[4 * t + 1] = seg[4 * i + 1];
        scratch[4 * t + 2] = seg[4 * i + 2];
        scratch[4 * t + 3] = seg[4 * i + 3];
    }
    cross_out[0] = old_crossings - cross_intra(scratch, changed, k, eu, ev);
    cross_out[1] = cross_intra(newseg, changed, k, eu, ev);
}

/* The new segments' crossings with every unchanged edge, one grid query
 * per changed edge.  With a settle, returns -1 as soon as the running
 * count settles the proposal's rejection (before any query when the count
 * 0 already does). */
static int64_t grid_crossings(const int64_t *ip, double bucket, int64_t k,
                              const int64_t *changed, const double *newseg,
                              const double *seg, const int64_t *eu,
                              const int64_t *ev, int64_t *cflag,
                              const int64_t *cell_count,
                              const int64_t *cell_items, int64_t *stamp,
                              int64_t *gen, Settle *settle) {
    int64_t t, found = 0;
    if (settle && settle_step(settle, 0)) {
        return -1;
    }
    for (t = 0; t < k; t++) {
        cflag[changed[t]] = 1;
    }
    for (t = 0; t < k && found >= 0; t++) {
        int64_t i = changed[t];
        int64_t count;
        if (settle) {
            settle->found = found;
        }
        count = cross_vs_grid(newseg + 4 * t, bucket, eu[i], ev[i], cflag,
                              ip, seg, eu, ev, cell_count, cell_items, stamp,
                              gen, 0, 0, settle);
        found = count < 0 ? -1 : found + count;
    }
    for (t = 0; t < k; t++) {
        cflag[changed[t]] = 0;
    }
    return found;
}

/* newrow_out[t] = tree-folded distance row from the new midpoint of
 * changed[t] to every unchanged midpoint (changed columns zeroed). */
static void eval_rows(const int64_t *ip, int64_t k, const int64_t *changed,
                      const double *newmid, const double *mid,
                      double *scratch, double *newrow_out) {
    int64_t m = ip[0], pad = ip[1];
    int64_t t, u, j;
    for (t = 0; t < k; t++) {
        double row = newmid[2 * t], col = newmid[2 * t + 1];
        for (j = 0; j < m; j++) {
            scratch[j] = dist2d(row, col, mid[2 * j], mid[2 * j + 1]);
        }
        for (u = 0; u < k; u++) {
            scratch[changed[u]] = 0.0;
        }
        newrow_out[t] = treefold(scratch, m, pad);
    }
}

/* Evaluate one move of k edges without mutating any state: its crossings,
 * cross_out = {old crossings touching a changed edge, new crossings}, and
 * its distance rows (eval_rows).  The caller assembles the cost delta from
 * these plus R (old rows) and the tiny intra-changed midpoint terms,
 * identically across engines. */
void mc_eval(const int64_t *ip, double bucket, int64_t k,
             const int64_t *changed, const double *newseg,
             const double *newmid, const double *seg, const double *mid,
             const int64_t *eu, const int64_t *ev,
             const int64_t *crossC, int64_t *cflag,
             const int64_t *cell_count,
             const int64_t *cell_items, int64_t *stamp, int64_t *gen,
             double *scratch, double *newrow_out, int64_t *cross_out) {
    cached_crossings(k, changed, newseg, seg, eu, ev, crossC, scratch,
                     cross_out);
    cross_out[1] += grid_crossings(ip, bucket, k, changed, newseg, seg, eu,
                                   ev, cflag, cell_count, cell_items, stamp,
                                   gen, 0);
    eval_rows(ip, k, changed, newmid, mid, scratch, newrow_out);
}

/* ------------------------------------------------------------------ */
/* Committing a move                                                   */
/* ------------------------------------------------------------------ */

/* Fold an evaluated move into the state arrays.  R maintenance runs in a
 * fixed canonical order (elementwise adjust against the old midpoints in
 * ascending changed order, then fresh tree-folded rows for the changed
 * edges) that the Python engines replicate exactly.  The grid derives an
 * edge's cells from its segment, so each changed edge leaves the grid
 * before its segment is overwritten.  Returns -1 when a grid cell
 * overflows cap: seg/mid/R are already updated, and the caller rebuilds
 * the grid from seg with a larger cap. */
int64_t mc_commit(const int64_t *ip, double bucket, int64_t k,
                  const int64_t *changed, const double *newseg,
                  const double *newmid, double *seg, double *mid,
                  double *R, int64_t *cell_count, int64_t *cell_items,
                  double *scratch, const int64_t *eu, const int64_t *ev,
                  int64_t *stamp, int64_t *gen, int64_t *crossC,
                  int64_t *cflag) {
    int64_t m = ip[0], pad = ip[1];
    int64_t t, u, j;
    int64_t status = 0;

    /* Crossing-cache maintenance, while the grid and seg still hold the
     * old geometry: cancel each changed edge's old crossings with the
     * unchanged edges, add its new ones, and recount the changed-vs-
     * changed pairs from scratch.  Integer arithmetic throughout, so the
     * cache stays exactly equal to a full recount. */
    for (t = 0; t < k; t++) {
        cflag[changed[t]] = 1;
    }
    for (t = 0; t < k; t++) {
        int64_t i = changed[t];
        cross_vs_grid(seg + 4 * i, bucket, eu[i], ev[i], cflag,
                      ip, seg, eu, ev, cell_count, cell_items, stamp, gen,
                      crossC, -1, 0);
        crossC[i] = cross_vs_grid(
            newseg + 4 * t, bucket, eu[i], ev[i], cflag,
            ip, seg, eu, ev, cell_count, cell_items, stamp, gen,
            crossC, +1, 0);
    }
    for (t = 0; t < k; t++) {
        int64_t i = changed[t];
        for (u = t + 1; u < k; u++) {
            int64_t other = changed[u];
            if (eu[i] == eu[other] || eu[i] == ev[other]
                || ev[i] == eu[other] || ev[i] == ev[other]) {
                continue;
            }
            if (segments_cross(newseg + 4 * t, newseg + 4 * u)) {
                crossC[i] += 1;
                crossC[other] += 1;
            }
        }
    }
    for (t = 0; t < k; t++) {
        cflag[changed[t]] = 0;
        grid_remove(changed[t], seg + 4 * changed[t], bucket, ip, cell_count,
                    cell_items);
    }

    for (t = 0; t < k; t++) {
        int64_t i = changed[t];
        double new_row = newmid[2 * t], new_col = newmid[2 * t + 1];
        double old_row = mid[2 * i], old_col = mid[2 * i + 1];
        for (j = 0; j < m; j++) {
            double d_new = dist2d(new_row, new_col, mid[2 * j], mid[2 * j + 1]);
            double d_old = dist2d(old_row, old_col, mid[2 * j], mid[2 * j + 1]);
            R[j] += d_new - d_old;
        }
    }
    for (t = 0; t < k; t++) {
        int64_t i = changed[t];
        seg[4 * i] = newseg[4 * t];
        seg[4 * i + 1] = newseg[4 * t + 1];
        seg[4 * i + 2] = newseg[4 * t + 2];
        seg[4 * i + 3] = newseg[4 * t + 3];
        mid[2 * i] = newmid[2 * t];
        mid[2 * i + 1] = newmid[2 * t + 1];
    }
    for (t = 0; t < k; t++) {
        int64_t i = changed[t];
        double row = mid[2 * i], col = mid[2 * i + 1];
        for (j = 0; j < m; j++) {
            scratch[j] = dist2d(row, col, mid[2 * j], mid[2 * j + 1]);
        }
        R[i] = treefold(scratch, m, pad);
    }
    for (t = 0; t < k && status == 0; t++) {
        status = grid_insert(changed[t], seg + 4 * changed[t], bucket, ip,
                             cell_count, cell_items);
    }
    return status;
}

/* ------------------------------------------------------------------ */
/* CPython's random.random(): MT19937 genrand_res53                    */
/* ------------------------------------------------------------------ */

/* The generator state is the 624-word array plus the read index of
 * random.Random.getstate(); the caller hands both across and back, so the
 * Python stream continues exactly where the kernel left it. */

#define MT_N 624
#define MT_M 397

static uint32_t mt_next(uint32_t *mt, int64_t *index) {
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    if (*index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        *index = 0;
    }
    y = mt[(*index)++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

static double mt_random(uint32_t *mt, int64_t *index) {
    uint32_t a = mt_next(mt, index) >> 5;
    uint32_t b = mt_next(mt, index) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* n successive random.random() draws (the generator's parity test). */
void mc_random(uint32_t *mt, int64_t *index, int64_t n, double *out) {
    int64_t i;
    for (i = 0; i < n; i++) {
        out[i] = mt_random(mt, index);
    }
}

/* random's _randbelow(count), 0 < count < 2**32: getrandbits(k) for
 * k = count.bit_length(), which for k <= 32 is one 32-bit word shifted
 * right by 32 - k, drawn again while the result is not below count. */
static int64_t mt_randbelow(uint32_t *mt, int64_t *index, int64_t count) {
    int k = 0;
    uint64_t r;
    while (((uint64_t)count) >> k) {
        k++;
    }
    do {
        r = mt_next(mt, index) >> (32 - k);
    } while (r >= (uint64_t)count);
    return (int64_t)r;
}

/* random.shuffle(items[0..n)), n < 2**32: for i from n - 1 down to 1,
 * items i and _randbelow(i + 1) swap.  Exported for the parity test;
 * mc_sweep shuffles its proposal order with it. */
void mc_shuffle(uint32_t *mt, int64_t *index, int64_t n, int64_t *items) {
    int64_t i;
    for (i = n - 1; i > 0; i--) {
        int64_t r = mt_randbelow(mt, index, i + 1), swap = items[i];
        items[i] = items[r];
        items[r] = swap;
    }
}

/* ------------------------------------------------------------------ */
/* Force pass: _ForceField.forces plus _step_toward                    */
/* ------------------------------------------------------------------ */

/* The force field arrives as flat arrays indexed by mover (mover i is
 * graph node i of the numpy field): CSR adjacency nbr_off[n+1] /
 * nbr_idx, the field's edges fe_u/fe_v[FP_EDGES] (self-loops included,
 * in graph.edges() order) and the +1/-1 poles pole[n].  Every sum below
 * repeats numpy's float operations in numpy's order:
 *
 *  - a np.bincount is a sequential scatter-add into a zeroed array, so a
 *    per-target sum starts at 0.0 and adds its terms in input order;
 *  - _np_bucket_pairs lists a point's partners by the 3x3 bucket offsets
 *    in row-major order, then by ascending index inside each bucket;
 *  - a force starts at +0.0 and only ever has values added, so it is
 *    never -0.0 and adding one of numpy's zero terms is the identity:
 *    those are skipped.  An edge push reaches a vertex as a sum over
 *    several edges, so the pushes still scatter through a zeroed
 *    temporary, u-ends then v-ends, as the np.bincount calls do.
 *
 * Scratch layout, for c = max(n, m) points bucketed into at most
 * cells = (height + 2) * (width + 2) buckets (every point lies on the
 * placement grid and buckets are at least one cell wide):
 * fbuf = {force[2n], pts[2n], mid[2m], push[2m], tmp[n]} and
 * ibuf = {code[c], items[c], partner[c], head[cells + 1]}. */

enum {
    FP_NODES,      /* graph vertices, the movers 0..n-1 */
    FP_EDGES,      /* edges of the field */
    FP_USE,        /* FORCE_* bit mask of the enabled forces */
    FP_RADIUS,     /* neighborhood_radius */
    FP_MAX_STEP,   /* step clamp */
    FP_SLOTS
};
enum { FW_ATTRACTION, FW_REPULSION, FW_DIPOLE, FW_SLOTS };
enum { FORCE_ATTRACTION = 1, FORCE_REPULSION = 2, FORCE_DIPOLE = 4 };

/* Return status of mc_forces and mc_sweep when a force is NaN. */
#define STATUS_NAN_FORCE 2

/* numpy's float floor_divide (npy_divmod), for the bucket keys. */
static double np_floor_divide(double a, double b) {
    double mod = fmod(a, b);
    double div = (a - mod) / b;
    double floordiv;
    if (mod != 0.0 && (b < 0) != (mod < 0)) {
        div -= 1.0;
    }
    if (div != 0.0) {
        floordiv = floor(div);
        if (div - floordiv > 0.5) {
            floordiv += 1.0;
        }
    } else {
        floordiv = copysign(0.0, a / b);
    }
    return floordiv;
}

/* Points grouped by bucket: the members of packed bucket code c are
 * items[head[c]..head[c+1]) in ascending index, and code[i] is point i's
 * code.  The packing leaves an empty bucket on every side, so the nine
 * neighbour codes of a point are valid and distinct. */
typedef struct {
    int64_t width;
    int64_t *code;
    int64_t *items;
    int64_t *partner;
    int64_t *head;
} Buckets;

static Buckets bucket_points(const double *pts, int64_t count, double size,
                             int64_t *ibuf) {
    Buckets b;
    int64_t r_min = 0, r_max = 0, c_min = 0, c_max = 0;
    int64_t cells, i, c;
    for (i = 0; i < count; i++) {
        int64_t kr = (int64_t)np_floor_divide(pts[2 * i], size);
        int64_t kc = (int64_t)np_floor_divide(pts[2 * i + 1], size);
        if (i == 0 || kr < r_min) r_min = kr;
        if (i == 0 || kr > r_max) r_max = kr;
        if (i == 0 || kc < c_min) c_min = kc;
        if (i == 0 || kc > c_max) c_max = kc;
    }
    b.width = c_max - c_min + 3;
    b.code = ibuf;
    b.items = ibuf + count;
    b.partner = ibuf + 2 * count;
    b.head = ibuf + 3 * count;
    cells = (r_max - r_min + 3) * b.width;
    for (c = 0; c <= cells; c++) {
        b.head[c] = 0;
    }
    for (i = 0; i < count; i++) {
        int64_t kr = (int64_t)np_floor_divide(pts[2 * i], size);
        int64_t kc = (int64_t)np_floor_divide(pts[2 * i + 1], size);
        b.code[i] = (kr - r_min + 1) * b.width + (kc - c_min + 1);
        b.head[b.code[i] + 1] += 1;
    }
    /* Counting sort by code, stable in the point index. */
    for (c = 0; c < cells; c++) {
        b.head[c + 1] += b.head[c];
    }
    for (i = 0; i < count; i++) {
        b.items[b.head[b.code[i]]++] = i;
    }
    for (c = cells; c > 0; c--) {
        b.head[c] = b.head[c - 1];
    }
    b.head[0] = 0;
    return b;
}

/* The partners of point i into b->partner, in _np_bucket_pairs order;
 * returns their number. */
static int64_t bucket_partners(const Buckets *b, int64_t i) {
    int64_t k = 0, d_row, d_col, s;
    for (d_row = -1; d_row <= 1; d_row++) {
        for (d_col = -1; d_col <= 1; d_col++) {
            int64_t c = b->code[i] + d_row * b->width + d_col;
            for (s = b->head[c]; s < b->head[c + 1]; s++) {
                if (b->items[s] != i) {
                    b->partner[k++] = b->items[s];
                }
            }
        }
    }
    return k;
}

/* _np_attraction: pull toward the neighbourhood centroid. */
static void attraction(const int64_t *nbr_off, const int64_t *nbr_idx,
                       int64_t n, double weight, const double *pts,
                       double *force) {
    int64_t v, s;
    for (v = 0; v < n; v++) {
        double degree = (double)(nbr_off[v + 1] - nbr_off[v]);
        double sum_r = 0.0, sum_c = 0.0;
        if (degree == 0.0) {
            continue;
        }
        for (s = nbr_off[v]; s < nbr_off[v + 1]; s++) {
            sum_r += pts[2 * nbr_idx[s]];
            sum_c += pts[2 * nbr_idx[s] + 1];
        }
        force[2 * v] += weight * (sum_r / degree - pts[2 * v]);
        force[2 * v + 1] += weight * (sum_c / degree - pts[2 * v + 1]);
    }
}

/* force[2v + axis] += the bincount of push[2e + axis] over ends[e]. */
static void scatter_add(const int64_t *ends, int64_t m, int64_t n,
                        const double *push, int axis, double *tmp,
                        double *force) {
    int64_t e, v;
    for (v = 0; v < n; v++) {
        tmp[v] = 0.0;
    }
    for (e = 0; e < m; e++) {
        tmp[ends[e]] += push[2 * e + axis];
    }
    for (v = 0; v < n; v++) {
        force[2 * v + axis] += tmp[v];
    }
}

/* _np_edge_repulsion: edges repel through their midpoints. */
static void edge_repulsion(const int64_t *fe_u, const int64_t *fe_v,
                           int64_t m, int64_t n, double weight,
                           int64_t radius, const double *pts, double *mid,
                           double *push, double *tmp, int64_t *ibuf,
                           double *force) {
    Buckets b;
    int64_t e, k, t;
    int axis;
    for (e = 0; e < m; e++) {
        mid[2 * e] = (pts[2 * fe_u[e]] + pts[2 * fe_v[e]]) / 2.0;
        mid[2 * e + 1] = (pts[2 * fe_u[e] + 1] + pts[2 * fe_v[e] + 1]) / 2.0;
    }
    b = bucket_points(mid, m, (double)(radius > 2 ? radius : 2), ibuf);
    for (e = 0; e < m; e++) {
        double sum_r = 0.0, sum_c = 0.0;
        k = bucket_partners(&b, e);
        for (t = 0; t < k; t++) {
            int64_t j = b.partner[t];
            double d_row = mid[2 * e] - mid[2 * j];
            double d_col = mid[2 * e + 1] - mid[2 * j + 1];
            double dist_sq = d_row * d_row + d_col * d_col;
            double magnitude;
            if (dist_sq < 1e-9) {
                d_row = d_col = dist_sq = 0.5;
            }
            magnitude = weight / dist_sq;
            sum_r += magnitude * d_row;
            sum_c += magnitude * d_col;
        }
        push[2 * e] = sum_r / 2.0;
        push[2 * e + 1] = sum_c / 2.0;
    }
    for (axis = 0; axis < 2; axis++) {
        scatter_add(fe_u, m, n, push, axis, tmp, force);
        scatter_add(fe_v, m, n, push, axis, tmp, force);
    }
}

/* _np_dipole: opposite poles attract, identical poles repel. */
static void dipole(const int64_t *pole, int64_t n, double weight,
                   int64_t radius, const double *pts, int64_t *ibuf,
                   double *force) {
    double reach = (double)radius;
    Buckets b = bucket_points(pts, n, reach, ibuf);
    int64_t i, k, t;
    for (i = 0; i < n; i++) {
        double sum_r = 0.0, sum_c = 0.0;
        k = bucket_partners(&b, i);
        for (t = 0; t < k; t++) {
            int64_t j = b.partner[t];
            double d_row = pts[2 * i] - pts[2 * j];
            double d_col = pts[2 * i + 1] - pts[2 * j + 1];
            double dist_sq = d_row * d_row + d_col * d_col;
            if (dist_sq >= 1e-9 && dist_sq <= reach * reach) {
                double sign = pole[i] == pole[j] ? 1.0 : -1.0;
                double magnitude = weight / dist_sq;
                sum_r += sign * magnitude * d_row;
                sum_c += sign * magnitude * d_col;
            }
        }
        force[2 * i] += sum_r;
        force[2 * i + 1] += sum_c;
    }
}

/* _step_toward for one force component. */
static int64_t step_toward(double force, int64_t max_step) {
    double magnitude = fabs(force);
    double length;
    if (magnitude < 0.25) {
        return 0;
    }
    length = rint(magnitude);
    if (length < 1.0) {
        length = 1.0;
    }
    if (length > (double)max_step) {
        length = (double)max_step;
    }
    return (int64_t)copysign(length, force);
}

/* The forces of every mover from its cell pos[2i], pos[2i+1] (into
 * fbuf[0..2n)) and the steps of proposals order[0..count): step[2p],
 * step[2p+1] move mover order[p].  Returns STATUS_NAN_FORCE, before
 * writing any step, when a force of an ordered mover is NaN (an
 * overflowing weighted sum); 0 otherwise. */
int64_t mc_forces(const int64_t *fp, const double *fw,
                  const int64_t *nbr_off, const int64_t *nbr_idx,
                  const int64_t *fe_u, const int64_t *fe_v,
                  const int64_t *pole, const int64_t *pos, int64_t count,
                  const int64_t *order, double *fbuf, int64_t *ibuf,
                  int64_t *step) {
    int64_t n = fp[FP_NODES], m = fp[FP_EDGES], use = fp[FP_USE];
    double *force = fbuf;
    double *pts = force + 2 * n;
    double *mid = pts + 2 * n;
    double *push = mid + 2 * m;
    double *tmp = push + 2 * m;
    int64_t i, p;
    for (i = 0; i < 2 * n; i++) {
        force[i] = 0.0;
        pts[i] = (double)pos[i];
    }
    if (use & FORCE_ATTRACTION) {
        attraction(nbr_off, nbr_idx, n, fw[FW_ATTRACTION], pts, force);
    }
    if ((use & FORCE_REPULSION) && m > 0) {
        edge_repulsion(fe_u, fe_v, m, n, fw[FW_REPULSION], fp[FP_RADIUS], pts,
                       mid, push, tmp, ibuf, force);
    }
    if ((use & FORCE_DIPOLE) && n > 0) {
        dipole(pole, n, fw[FW_DIPOLE], fp[FP_RADIUS], pts, ibuf, force);
    }
    for (p = 0; p < count; p++) {
        if (isnan(force[2 * order[p]]) || isnan(force[2 * order[p] + 1])) {
            return STATUS_NAN_FORCE;
        }
    }
    for (p = 0; p < count; p++) {
        step[2 * p] = step_toward(force[2 * order[p]], fp[FP_MAX_STEP]);
        step[2 * p + 1] = step_toward(force[2 * order[p] + 1], fp[FP_MAX_STEP]);
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* One annealing sweep                                                 */
/* ------------------------------------------------------------------ */

/* Slots of mc_sweep's in/out parameter arrays (mirrored by
 * repro.kernels.metrics). */
enum {
    SP_START,      /* first proposal to run; the resume point on return 1 */
    SP_COUNT,      /* proposals in the sweep */
    SP_HEIGHT,     /* placement grid rows */
    SP_WIDTH,      /* placement grid columns */
    SP_MT_INDEX,   /* MT19937 read index */
    SP_PROPOSED,   /* proposals evaluated, this sweep */
    SP_ACCEPTED,   /* accepted moves, this sweep */
    SP_IMPROVING,  /* accepted moves with a negative delta, this sweep */
    SP_CROSSINGS,  /* committed crossing count */
    SP_EXACT,      /* proposals that computed their distance rows */
    SP_SETTLED,    /* proposals rejected before their query finished */
    SP_SLOTS
};
enum {
    DP_LENGTH_W,
    DP_SPACING_W,
    DP_CROSSING_W,
    DP_TEMPERATURE,
    DP_TOTAL_LENGTH,   /* committed metric sums ... */
    DP_WEIGHTED_LENGTH,
    DP_SPACING_SUM,
    DP_COST,           /* ... and their combined cost */
    DP_SLOTS
};

/* The tracker's combined cost (_cost_from / combine_metric_cost), in the
 * same operation order. */
static double combined_cost(const double *dp, int64_t m, int64_t crossings,
                            double total_length, double spacing_sum) {
    int64_t pairs = m * (m - 1) / 2;
    double avg_length = m ? total_length / (double)m : 0.0;
    double avg_spacing = pairs ? spacing_sum / (double)pairs : 0.0;
    return dp[DP_CROSSING_W] * (double)crossings
           + dp[DP_LENGTH_W] * avg_length
           + dp[DP_SPACING_W] * (1.0 / (1.0 + avg_spacing));
}

/* Sorted, deduplicated union of the ascending incident-edge lists of
 * vertices v and w (w < 0: none); the tracker's `changed` set. */
static int64_t incident_union(const int64_t *inc_off, const int64_t *inc_edge,
                              int64_t v, int64_t w, int64_t *out) {
    int64_t a = inc_off[v], a_end = inc_off[v + 1];
    int64_t b = 0, b_end = 0, k = 0;
    if (w >= 0) {
        b = inc_off[w];
        b_end = inc_off[w + 1];
    }
    while (a < a_end || b < b_end) {
        if (b >= b_end || (a < a_end && inc_edge[a] < inc_edge[b])) {
            out[k++] = inc_edge[a++];
        } else if (a >= a_end || inc_edge[b] < inc_edge[a]) {
            out[k++] = inc_edge[b++];
        } else {
            out[k++] = inc_edge[a];
            a++;
            b++;
        }
    }
    return k;
}

/* Length sums after a move, in the float order of the tracker's
 * _assemble_delta: after[0] = total_length, after[1] = weighted_length. */
static void move_lengths(int64_t k, const int64_t *changed,
                         const double *newseg, const double *seg,
                         const double *weight, const double *dp,
                         double *after) {
    double total_length = dp[DP_TOTAL_LENGTH];
    double weighted_length = dp[DP_WEIGHTED_LENGTH];
    int64_t t;
    for (t = 0; t < k; t++) {
        const double *s = seg + 4 * changed[t];
        const double *ns = newseg + 4 * t;
        double old_len = fabs(s[0] - s[2]) + fabs(s[1] - s[3]);
        double new_len = fabs(ns[0] - ns[2]) + fabs(ns[1] - ns[3]);
        total_length += new_len - old_len;
        weighted_length += weight[changed[t]] * (new_len - old_len);
    }
    after[0] = total_length;
    after[1] = weighted_length;
}

/* A lower bound on the cost delta move_delta would compute, from the
 * move's crossings and exact total length but without its distance rows.
 *
 * Each pairwise midpoint distance that involves a changed midpoint moves
 * by at most the Manhattan displacements of its two ends, so the spacing
 * sum S after the move lies within m * (sum of displacements) of S now.
 * The computed sum strays from the true one only by rounding and by the
 * drift of the R cache (below 1e-10 * S after 1e5 commits), so the
 * interval is widened by far more than either: x (1 + 1e-6), plus
 * 1e-6 * |S|, plus 1.0.  Its low end is clamped at -pairs / 2, where
 * 1 + S / pairs = 0.5, so that 1 / (1 + S / pairs) stays monotone on it.
 * settle_init stores the interval's ends; delta_lower_bound takes the
 * crossing count.
 *
 * combined_cost is a chain of correctly rounded operations, each monotone
 * in S (the spacing weight's sign only flips the direction), so the cost
 * at the computed S after the move lies between its values at the two
 * ends, and the smaller one minus the committed cost bounds the delta
 * from below.  A NaN end bounds nothing and returns -HUGE_VAL.
 *
 * The same chain is monotone in the crossing count: with a crossing weight
 * w > 0 the bound never falls as the count grows, with w = 0 it does not
 * depend on it, and with w < 0 it falls.  (A NaN at a larger count needs
 * an infinite length or spacing term, which makes the bound -inf or NaN
 * at every count, so it never turns a positive bound back.) */
static double delta_lower_bound(const Settle *s, int64_t crossings) {
    double cost_low = combined_cost(s->dp, s->m, crossings, s->total_length,
                                    s->low);
    double cost_high = combined_cost(s->dp, s->m, crossings, s->total_length,
                                     s->high);
    if (isnan(cost_low) || isnan(cost_high)) {
        return -HUGE_VAL;
    }
    return (cost_low < cost_high ? cost_low : cost_high) - s->dp[DP_COST];
}

/* The oracle rejects a move whose delta is at least `bound` > 0 when its
 * draw is at least this: -delta / T <= -bound / T, so the oracle's
 * exp(-delta / T) is below it.  The factor covers libm exp's error of
 * under 1 ulp, and DBL_MIN covers underflow. */
static int draw_rejects(double bound, double temperature, double draw) {
    return draw >= exp(-bound / temperature) * (1.0 + 1e-9) + DBL_MIN;
}

#define NEVER INT64_MAX

/* Whether `found` new grid crossings settle the test: before the draw,
 * the bound is positive (the oracle's first test fails); after it, the
 * draw rejects the move. */
static int settles(const Settle *s, int64_t found) {
    double bound = delta_lower_bound(s, s->base + found);
    return bound > 0.0
           && (!s->drawn || draw_rejects(bound, s->temperature, s->draw));
}

/* The least count in [lo, s->most] at which the test settles, or NEVER;
 * with w = 0 only lo is tried, since the count cannot move the bound.
 * settles is monotone in the count for w >= 0 (false, then true), so this
 * bisects, and every count it returns was seen to settle.  The first two
 * probes go to `guess` and then to its neighbour on the side that holds
 * the answer, which ends the search when the guess is right or off by
 * one. */
static int64_t first_settling(const Settle *s, int64_t lo, double guess) {
    int64_t hi = s->dp[DP_CROSSING_W] > 0.0 ? s->most : lo;
    int64_t a = lo, b = hi + 1; /* the answer lies in [a, b]; hi + 1: none */
    int64_t probe = guess > (double)lo ? (guess < (double)hi ? (int64_t)guess
                                                             : hi)
                                       : lo;
    int tries = 0;
    while (a < b) {
        int64_t g = tries++ < 2 && probe >= a && probe < b ? probe
                                                           : a + (b - a) / 2;
        if (settles(s, g)) {
            b = g;
            probe = g - 1;
        } else {
            a = g + 1;
            probe = g + 1;
        }
    }
    return b > hi ? NEVER : b;
}

/* The partial count `found` reached s->stop.  Before the draw the bound
 * has turned positive, so the oracle draws: at T <= 1e-9 it rejects
 * without one (return 1); otherwise the draw is made here, and s->stop
 * moves to the least count at which it rejects the move.  After the draw,
 * reaching s->stop rejects.  Returns 1 when the proposal is rejected. */
static int settle_step(Settle *s, int64_t found) {
    double bound, needed, w = s->dp[DP_CROSSING_W];
    if (found < s->stop) {
        return 0;
    }
    if (s->drawn || !(s->temperature > 1e-9)) {
        return 1;
    }
    s->draw = mt_random(s->mt, s->mt_index);
    s->drawn = 1;
    /* Guess: the bound grows by about w per crossing, and the draw rejects
     * from a bound of -T log((draw - DBL_MIN) / (1 + 1e-9)) on. */
    bound = delta_lower_bound(s, s->base + found);
    needed = -s->temperature * log((s->draw - DBL_MIN) / (1.0 + 1e-9));
    s->stop = first_settling(
        s, found,
        w > 0.0 ? (double)found + ceil((needed - bound) / w) : (double)found);
    return s->stop == found;
}

/* Set up a proposal's settle from its exact total length and its crossing
 * base, with s->stop at the least count where the bound turns positive
 * (NEVER at w < 0, where a growing count can only lower the bound). */
static void settle_init(Settle *s, int64_t m, int64_t k,
                        const int64_t *changed, const double *newmid,
                        const double *mid, const double *dp,
                        double total_length, int64_t base,
                        double temperature, uint32_t *mt, int64_t *mt_index) {
    double spacing = dp[DP_SPACING_SUM];
    double shift = 0.0, reach, w = dp[DP_CROSSING_W];
    int64_t t;
    for (t = 0; t < k; t++) {
        const double *old = mid + 2 * changed[t];
        shift += fabs(newmid[2 * t] - old[0]) + fabs(newmid[2 * t + 1] - old[1]);
    }
    reach = (double)m * shift * (1.0 + 1e-6) + 1e-6 * fabs(spacing) + 1.0;
    s->low = spacing - reach;
    if (s->low < -0.5 * (double)(m * (m - 1) / 2)) {
        s->low = -0.5 * (double)(m * (m - 1) / 2);
    }
    s->high = spacing + reach;
    s->dp = dp;
    s->m = m;
    s->total_length = total_length;
    s->base = base;
    s->most = k * (m - k);
    s->temperature = temperature;
    s->mt = mt;
    s->mt_index = mt_index;
    s->drawn = 0;
    s->draw = 0.0;
    s->found = 0;
    s->stop = NEVER;
    if (w >= 0.0) {
        /* Guess: the count at which w * crossings outgrows the bound at 0. */
        s->stop = first_settling(
            s, 0, w > 0.0 ? floor(-delta_lower_bound(s, base) / w) + 1.0 : 0.0);
    }
}

/* Cost delta of an evaluated move, in exactly the float order of the
 * tracker's _assemble_delta, given its lengths (move_lengths) and
 * crossings; fills after[2] = spacing_sum and after[3] = cost. */
static double move_delta(const int64_t *ip, int64_t k, const int64_t *changed,
                         const double *newmid, const double *mid,
                         const double *R, const double *newrow,
                         int64_t crossings, const double *dp, double *after) {
    double old_spacing = 0.0, new_spacing = 0.0;
    int64_t t, u;
    for (t = 0; t < k; t++) {
        old_spacing += R[changed[t]];
    }
    for (t = 0; t < k; t++) {
        const double *a = mid + 2 * changed[t];
        for (u = t + 1; u < k; u++) {
            const double *b = mid + 2 * changed[u];
            old_spacing -= dist2d(a[0], a[1], b[0], b[1]);
        }
    }
    for (t = 0; t < k; t++) {
        new_spacing += newrow[t];
    }
    for (t = 0; t < k; t++) {
        for (u = t + 1; u < k; u++) {
            new_spacing += dist2d(newmid[2 * t], newmid[2 * t + 1],
                                  newmid[2 * u], newmid[2 * u + 1]);
        }
    }
    after[2] = dp[DP_SPACING_SUM] + (new_spacing - old_spacing);
    after[3] = combined_cost(dp, ip[0], crossings, after[0], after[2]);
    return after[3] - dp[DP_COST];
}

/* Run proposals order[sp[SP_START]..sp[SP_COUNT]) of one annealing sweep:
 * the sequential proposal loop of repro.mapping.force_directed, whose
 * Python form is the oracle this must match bit for bit.
 *
 * A sweep starting at proposal 0 first sets order to 0..count-1 and
 * shuffles it like random.shuffle (mc_shuffle), zeroes the per-sweep
 * counters, runs the force pass (mc_forces) over the movers' current cells
 * and writes every proposal's step into step[2p], step[2p+1]; a resumed
 * sweep reuses those.  Proposal p moves vertex order[p] by that step
 * (vertices are indices into pos[nv*2] = placement cells, movers first;
 * ea/eb[m] are the edge endpoints in that index space, inc_off/inc_edge
 * their ascending incident-edge lists).  A zero step or an off-grid
 * target is skipped without counting; otherwise the target's occupant
 * (occ[height*width], -1 when free) swaps into the vertex's cell, the
 * move is evaluated against the tracker state, and it is accepted when
 * delta <= 0 or (temperature > 1e-9 and random() < exp(-delta / T)) --
 * one draw only when the first test fails, exactly like Python's `or`.
 * Accepted moves are committed (mc_commit), applied to pos/occ and
 * counted.  pos, occ, the generator (mt, sp[SP_MT_INDEX]) and the
 * committed sums carry over to the next call.
 *
 * A proposal pays only for what decides it.  Its lengths and the
 * crossings that need no query come first: crossings after the move are
 * base + the new segments' grid crossings.  delta_lower_bound at the
 * count gives dlo <= delta.  When dlo > 0 the oracle's first test fails,
 * so:
 *  - at temperature <= 1e-9 the move is rejected without a draw, as the
 *    oracle rejects it;
 *  - otherwise the draw r the oracle makes is made here too, and the move
 *    is rejected when draw_rejects(dlo, T, r).
 * A partial count already settles this when the crossing weight w > 0:
 * dlo never falls as the count grows, so a positive dlo at a partial
 * count stays positive at the full one.  settle_init finds the least
 * count at which dlo turns positive, and the queries stop there
 * (settle_step): they reject at T <= 1e-9, or make the draw and go on to
 * the least count at which it rejects the move.  At w = 0 the count
 * does not move dlo, so this is decided before the first query; at
 * w < 0 the queries run in full.  A proposal that no count settles
 * computes its rows and the exact delta, and decides with the draw
 * already made, if any.  Decisions, draws and committed sums are
 * therefore the oracle's.  sp[SP_EXACT] counts the proposals that
 * computed their rows, sp[SP_SETTLED] those rejected before their
 * queries finished.
 *
 * Returns 0 when the sweep is done; STATUS_NAN_FORCE, before any
 * proposal, when a force is NaN; or 1 when a commit overflowed a grid
 * cell: sp[SP_START] then holds the next proposal, and the caller
 * rebuilds the grid with a larger capacity and calls again. */
int64_t mc_sweep(const int64_t *ip, double bucket,
                 double *seg, double *mid, double *R,
                 const int64_t *eu, const int64_t *ev,
                 int64_t *crossC, int64_t *cflag,
                 int64_t *cell_count, int64_t *cell_items,
                 int64_t *stamp, int64_t *gen,
                 double *scratch, int64_t *changed, double *newseg,
                 double *newmid, double *newrow,
                 const double *weight, const int64_t *ea, const int64_t *eb,
                 const int64_t *inc_off, const int64_t *inc_edge,
                 int64_t *pos, int64_t *occ,
                 int64_t *order, int64_t *step,
                 uint32_t *mt, int64_t *sp, double *dp,
                 const int64_t *fp, const double *fw,
                 const int64_t *nbr_off, const int64_t *nbr_idx,
                 const int64_t *fe_u, const int64_t *fe_v,
                 const int64_t *pole, double *fbuf, int64_t *ibuf) {
    int64_t height = sp[SP_HEIGHT], width = sp[SP_WIDTH];
    double temperature = dp[DP_TEMPERATURE];
    int64_t p;
    if (sp[SP_START] == 0) {
        for (p = 0; p < sp[SP_COUNT]; p++) {
            order[p] = p;
        }
        mc_shuffle(mt, &sp[SP_MT_INDEX], sp[SP_COUNT], order);
        sp[SP_PROPOSED] = sp[SP_ACCEPTED] = sp[SP_IMPROVING] = 0;
        sp[SP_EXACT] = sp[SP_SETTLED] = 0;
        if (mc_forces(fp, fw, nbr_off, nbr_idx, fe_u, fe_v, pole, pos,
                      sp[SP_COUNT], order, fbuf, ibuf, step) != 0) {
            return STATUS_NAN_FORCE;
        }
    }
    for (p = sp[SP_START]; p < sp[SP_COUNT]; p++) {
        int64_t v = order[p];
        int64_t d_row = step[2 * p], d_col = step[2 * p + 1];
        int64_t row, col, t_row, t_col, occupant, k, t;
        int64_t crossings_after = 0;
        double after[4] = {0.0, 0.0, 0.0, 0.0};
        double delta = 0.0, draw = 0.0;
        int accept, drawn = 0;
        if (d_row == 0 && d_col == 0) {
            continue;
        }
        row = pos[2 * v];
        col = pos[2 * v + 1];
        t_row = row + d_row;
        t_col = col + d_col;
        if (t_row < 0 || t_row >= height || t_col < 0 || t_col >= width) {
            continue;
        }
        occupant = occ[t_row * width + t_col];
        k = incident_union(inc_off, inc_edge, v, occupant, changed);
        for (t = 0; t < k; t++) {
            int64_t i = changed[t];
            int64_t ends[2] = {ea[i], eb[i]};
            int e;
            for (e = 0; e < 2; e++) {
                double r, c;
                if (ends[e] == v) {
                    r = (double)t_row;
                    c = (double)t_col;
                } else if (ends[e] == occupant) {
                    r = (double)row;
                    c = (double)col;
                } else {
                    r = (double)pos[2 * ends[e]];
                    c = (double)pos[2 * ends[e] + 1];
                }
                newseg[4 * t + 2 * e] = r;
                newseg[4 * t + 2 * e + 1] = c;
            }
            newmid[2 * t] = (newseg[4 * t] + newseg[4 * t + 2]) / 2.0;
            newmid[2 * t + 1] = (newseg[4 * t + 1] + newseg[4 * t + 3]) / 2.0;
        }
        sp[SP_PROPOSED] += 1;
        if (k > 0) {
            Settle s;
            int64_t cached[2], found;
            double bound;
            move_lengths(k, changed, newseg, seg, weight, dp, after);
            cached_crossings(k, changed, newseg, seg, eu, ev, crossC, scratch,
                             cached);
            settle_init(&s, ip[0], k, changed, newmid, mid, dp, after[0],
                        sp[SP_CROSSINGS] - cached[0] + cached[1], temperature,
                        mt, &sp[SP_MT_INDEX]);
            found = grid_crossings(ip, bucket, k, changed, newseg, seg, eu,
                                   ev, cflag, cell_count, cell_items, stamp,
                                   gen, &s);
            if (found < 0) {
                sp[SP_SETTLED] += 1;
                continue;
            }
            crossings_after = s.base + found;
            drawn = s.drawn;
            draw = s.draw;
            bound = delta_lower_bound(&s, crossings_after);
            if (bound > 0.0) {
                if (!(temperature > 1e-9)) {
                    continue;
                }
                if (!drawn) {
                    draw = mt_random(mt, &sp[SP_MT_INDEX]);
                    drawn = 1;
                }
                if (draw_rejects(bound, temperature, draw)) {
                    continue;
                }
            }
            eval_rows(ip, k, changed, newmid, mid, scratch, newrow);
            sp[SP_EXACT] += 1;
            delta = move_delta(ip, k, changed, newmid, mid, R, newrow,
                               crossings_after, dp, after);
        }
        accept = delta <= 0.0;
        if (!accept && temperature > 1e-9) {
            if (!drawn) {
                draw = mt_random(mt, &sp[SP_MT_INDEX]);
            }
            accept = draw < exp(-delta / temperature);
        }
        if (!accept) {
            continue;
        }
        pos[2 * v] = t_row;
        pos[2 * v + 1] = t_col;
        occ[t_row * width + t_col] = v;
        occ[row * width + col] = occupant;
        if (occupant >= 0) {
            pos[2 * occupant] = row;
            pos[2 * occupant + 1] = col;
        }
        sp[SP_ACCEPTED] += 1;
        if (delta < 0.0) {
            sp[SP_IMPROVING] += 1;
        }
        if (k > 0) {
            dp[DP_TOTAL_LENGTH] = after[0];
            dp[DP_WEIGHTED_LENGTH] = after[1];
            dp[DP_SPACING_SUM] = after[2];
            dp[DP_COST] = after[3];
            sp[SP_CROSSINGS] = crossings_after;
            if (mc_commit(ip, bucket, k, changed, newseg, newmid, seg, mid,
                          R, cell_count, cell_items, scratch, eu, ev, stamp,
                          gen, crossC, cflag) != 0) {
                sp[SP_START] = p + 1;
                return 1;
            }
        }
    }
    sp[SP_START] = sp[SP_COUNT];
    return 0;
}

/* ------------------------------------------------------------------ */
/* Permutation-hop annealing sweep                                     */
/* ------------------------------------------------------------------ */

/* The visit loop of repro.mapping.stitching's hop annealer, against its
 * oracle optimize_permutation_hops_reference.  Braid slot s has endpoint
 * cells ends[4s..4s+4) = {src_row, src_col, dst_row, dst_col}, its hop
 * hops[2s..2s+2) and its polyline's segment rows seg[8s..8s+8) =
 * {src, hop}, {hop, dst}.  Cells are integers, so the double arithmetic
 * of the crossing predicates is exact. */

/* segments_intersect's rule: segments that meet at an endpoint
 * coordinate do not cross. */
static int shares_endpoint(const double *a, const double *b) {
    return ((a[0] == b[0] && a[1] == b[1]) || (a[0] == b[2] && a[1] == b[3])
            || (a[2] == b[0] && a[3] == b[1]) || (a[2] == b[2] && a[3] == b[3]));
}

static int64_t absdiff(int64_t a, int64_t b) {
    return a < b ? b - a : a - b;
}

/* Twice the oracle's float score 4 * crossings + 0.5 * detour of braid
 * `self` routed through (hop_row, hop_col): every term is a small integer,
 * so 8 * crossings + detour orders candidates exactly as the float does.
 * The candidate's segment from the source is tested against the other
 * braids' segment rows near[0..count[0]), the one to the destination
 * against near[stride..stride + count[1]). */
static int64_t hop_score(const int64_t *ends, const double *seg,
                         const int64_t *near, const int64_t *count,
                         int64_t stride, int64_t self,
                         int64_t hop_row, int64_t hop_col) {
    const int64_t *end = ends + 4 * self;
    double mine[8];
    int64_t detour = absdiff(end[0], hop_row) + absdiff(end[1], hop_col)
                     + absdiff(hop_row, end[2]) + absdiff(hop_col, end[3])
                     - absdiff(end[0], end[2]) - absdiff(end[1], end[3]);
    int64_t crossings = 0, n;
    int a;
    mine[0] = (double)end[0];
    mine[1] = (double)end[1];
    mine[2] = mine[4] = (double)hop_row;
    mine[3] = mine[5] = (double)hop_col;
    mine[6] = (double)end[2];
    mine[7] = (double)end[3];
    for (a = 0; a < 2; a++) {
        const double *query = mine + 4 * a;
        const int64_t *rows = near + a * stride;
        for (n = 0; n < count[a]; n++) {
            const double *other = seg + 4 * rows[n];
            if (bbox_reject(query, other) || shares_endpoint(query, other)) {
                continue;
            }
            crossings += segments_cross(query, other);
        }
    }
    return 8 * crossings + detour;
}

/* The segment rows of braids other than `self` that a candidate hop in
 * [row_lo, row_hi] x [col_lo, col_hi] can cross: near[0..count[0]) for
 * its segment from the source and near[2 * braids..2 * braids + count[1])
 * for the one to the destination.  Such a segment lies inside the box
 * spanning its endpoint and that range, so a row whose box misses it
 * (bbox_reject, with its tolerance margin, is sound) crosses no
 * candidate's segment. */
static void hop_near(const int64_t *ends, const double *seg, int64_t braids,
                     int64_t self, int64_t row_lo, int64_t row_hi,
                     int64_t col_lo, int64_t col_hi, int64_t *near,
                     int64_t *count) {
    const int64_t *end = ends + 4 * self;
    int half;
    for (half = 0; half < 2; half++) {
        int64_t row = end[2 * half], col = end[2 * half + 1];
        int64_t *rows = near + half * 2 * braids;
        int64_t j, n = 0;
        double box[4];
        box[0] = (double)(row < row_lo ? row : row_lo);
        box[1] = (double)(col < col_lo ? col : col_lo);
        box[2] = (double)(row > row_hi ? row : row_hi);
        box[3] = (double)(col > col_hi ? col : col_hi);
        for (j = 0; j < 2 * braids; j++) {
            if ((j >> 1) != self && !bbox_reject(box, seg + 4 * j)) {
                rows[n++] = j;
            }
        }
        count[half] = n;
    }
}

/* One annealing sweep: visit v anneals braid slot order[v], for v in
 * [0, braids).  Its candidates, in the oracle's order, are the current
 * hop, the in-bounds cells of the 5x5 neighbourhood around it in row-major
 * order, then the pre-drawn random cell draws[2v..2v+2) when in bounds; a
 * candidate replaces the best one only when strictly cheaper.  The chosen
 * hop and its segment rows are written back before the next visit.
 * near[4 * braids] is scratch. */
void mc_hop_sweep(int64_t braids, int64_t height, int64_t width,
                  const int64_t *ends, int64_t *hops, double *seg,
                  const int64_t *order, const int64_t *draws,
                  int64_t *near) {
    int64_t v, stride = 2 * braids;
    for (v = 0; v < braids; v++) {
        int64_t s = order[v];
        int64_t cur_row = hops[2 * s], cur_col = hops[2 * s + 1];
        int64_t best_row = cur_row, best_col = cur_col;
        int64_t row = draws[2 * v], col = draws[2 * v + 1];
        int64_t count[2], best, score, dr, dc;
        double *row_seg = seg + 8 * s;
        hop_near(ends, seg, braids, s, cur_row - 2, cur_row + 2, cur_col - 2,
                 cur_col + 2, near, count);
        best = hop_score(ends, seg, near, count, stride, s, cur_row, cur_col);
        for (dr = -2; dr <= 2; dr++) {
            for (dc = -2; dc <= 2; dc++) {
                int64_t r = cur_row + dr, c = cur_col + dc;
                if ((dr == 0 && dc == 0) || r < 0 || r >= height || c < 0
                    || c >= width) {
                    continue;
                }
                score = hop_score(ends, seg, near, count, stride, s, r, c);
                if (score < best) {
                    best = score;
                    best_row = r;
                    best_col = c;
                }
            }
        }
        if (row >= 0 && row < height && col >= 0 && col < width) {
            hop_near(ends, seg, braids, s, row, row, col, col, near, count);
            score = hop_score(ends, seg, near, count, stride, s, row, col);
            if (score < best) {
                best_row = row;
                best_col = col;
            }
        }
        hops[2 * s] = best_row;
        hops[2 * s + 1] = best_col;
        row_seg[2] = row_seg[4] = (double)best_row;
        row_seg[3] = row_seg[5] = (double)best_col;
    }
}

/* ------------------------------------------------------------------ */
/* Multilevel graph bisection                                          */
/* ------------------------------------------------------------------ */

/* The bisection of repro.graphs.partition (bisect_left and the oracle
 * helpers it calls), whose Python form is the oracle this must match
 * exactly.  A level is an adjacency in CSR form: node i of a level is the
 * oracle dict's i-th key, a row lists the node's neighbours in the dict's
 * order, and every weight carries whether the oracle holds it as an int.
 * The caller guarantees that ints and every sum of them are exact in a
 * double (their absolute values sum to at most 2**52) and that no weight
 * is NaN or infinite, so each float operation below is the oracle's. */

/* random.Random(seed) for an int seed: CPython's init_by_array over the
 * 32-bit words of abs(seed), least significant first (one zero word for
 * 0), with the read index left at MT_N.  Exported for the parity test. */
void mc_seed(const uint32_t *key, int64_t length, uint32_t *mt,
             int64_t *index) {
    static const uint32_t zero = 0;
    int64_t i = 1, j = 0, k;
    if (length == 0) {
        key = &zero;
        length = 1;
    }
    mt[0] = 19650218U;
    for (k = 1; k < MT_N; k++) {
        mt[k] = 1812433253U * (mt[k - 1] ^ (mt[k - 1] >> 30)) + (uint32_t)k;
    }
    for (k = MT_N > length ? MT_N : length; k > 0; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525U))
                + key[j] + (uint32_t)j;
        i++;
        j++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
        if (j >= length) {
            j = 0;
        }
    }
    for (k = MT_N - 1; k > 0; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941U))
                - (uint32_t)i;
        i++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
    }
    mt[0] = 0x80000000U;
    *index = MT_N;
}

/* A Python int seed as sign and magnitude words, least significant first,
 * with no leading zero word (0 has none); words has room for one more. */
typedef struct {
    uint32_t *words;
    int64_t count;
    int negative;
} Seed;

/* seed += 1: the magnitude grows for seeds >= 0 and shrinks below. */
static void seed_increment(Seed *s) {
    int64_t i = 0;
    if (!s->negative) {
        while (i < s->count && ++s->words[i] == 0) {
            i++;
        }
        if (i == s->count) {
            s->words[s->count++] = 1;
        }
        return;
    }
    while (s->words[i] == 0) {
        s->words[i++] = 0xffffffffU;
    }
    s->words[i]--;
    while (s->count > 0 && s->words[s->count - 1] == 0) {
        s->count--;
    }
    s->negative = s->count > 0;
}

/* Python's sum() over one row's weights: exact int adds up to the first
 * float, which is one rounded add; then plain adds, or from Python 3.12
 * (compensated) Neumaier-compensated adds for the floats and plain ones
 * for the ints, the compensation added at the end when finite. */
static double py_sum(const double *w, const uint8_t *isint, int64_t count,
                     int compensated) {
    double total = 0.0, c = 0.0;
    int64_t e = 0;
    while (e < count && isint[e]) {
        total += w[e++];
    }
    if (e == count) {
        return total;
    }
    total += w[e++];
    for (; e < count; e++) {
        double x = w[e], t;
        if (!compensated || isint[e]) {
            total += x;
            continue;
        }
        t = total + x;
        if (fabs(total) >= fabs(x)) {
            c += (total - t) + x;
        } else {
            c += (x - t) + total;
        }
        total = t;
    }
    if (c != 0.0 && isfinite(c)) {
        total += c;
    }
    return total;
}

/* Stable sort of items[0..n) by keys, descending: equal keys keep their
 * order, as list.sort(key=k, reverse=True) and sorted(key=-k) leave them
 * (keys are never NaN, so any stable sort agrees with Python's).
 * ti/tk hold n entries of scratch. */
static void sort_descending(int64_t *items, double *keys, int64_t n,
                            int64_t *ti, double *tk) {
    int64_t lo, width;
    for (lo = 0; lo < n; lo += 16) {
        int64_t hi = lo + 16 < n ? lo + 16 : n, a, b;
        for (a = lo + 1; a < hi; a++) {
            double key = keys[a];
            int64_t item = items[a];
            for (b = a; b > lo && keys[b - 1] < key; b--) {
                keys[b] = keys[b - 1];
                items[b] = items[b - 1];
            }
            keys[b] = key;
            items[b] = item;
        }
    }
    for (width = 16; width < n; width *= 2) {
        for (lo = 0; lo + width < n; lo += 2 * width) {
            int64_t mid = lo + width, hi = mid + width < n ? mid + width : n;
            int64_t a = lo, b = mid, t = lo;
            while (a < mid || b < hi) {
                if (b >= hi || (a < mid && !(keys[b] > keys[a]))) {
                    tk[t] = keys[a];
                    ti[t++] = items[a++];
                } else {
                    tk[t] = keys[b];
                    ti[t++] = items[b++];
                }
            }
            memcpy(keys + lo, tk + lo, (size_t)(hi - lo) * sizeof(double));
            memcpy(items + lo, ti + lo, (size_t)(hi - lo) * sizeof(int64_t));
        }
    }
}

/* One level of the multilevel scheme.  off/nbr/w/isint/size are borrowed
 * from the caller for a whole graph taken as is, owned otherwise. */
typedef struct {
    int64_t n;
    int64_t *off, *nbr, *size;
    double *w;
    uint8_t *isint;
    int64_t *mem;  /* node -> coarse node, on a level that coarsens */
    uint8_t *left; /* this level's bisection */
    int owned;
} Level;

static void level_free(Level *g) {
    if (g->owned) {
        free(g->off);
        free(g->nbr);
        free(g->size);
        free(g->w);
        free(g->isint);
    }
    free(g->mem);
    free(g->left);
}

static int level_alloc(Level *g, int64_t n, int64_t entries) {
    g->n = n;
    g->owned = 1;
    g->off = malloc((size_t)(n + 1) * sizeof(int64_t));
    g->nbr = malloc((size_t)(entries + 1) * sizeof(int64_t));
    g->size = malloc((size_t)(n + 1) * sizeof(int64_t));
    g->w = malloc((size_t)(entries + 1) * sizeof(double));
    g->isint = malloc((size_t)(entries + 1));
    return g->off && g->nbr && g->size && g->w && g->isint ? 0 : -1;
}

/* Scratch shared by every level, sized for the largest (the first). */
typedef struct {
    int64_t *items, *ti, *queue;
    double *keys, *tk;
    uint8_t *flag;
} Scratch;

/* induced_subgraph(adj, order): node l is order[l] (pos maps it back) and
 * a row holds first the neighbours met while earlier nodes were scanned,
 * by ascending node, then the node's own neighbours from itself on in its
 * dict order -- networkx's G.subgraph(order).copy() on a symmetric
 * adjacency. */
static int build_induced(Level *g, int64_t n, const int64_t *order,
                         const int64_t *pos, const int64_t *off,
                         const int64_t *nbr, const double *w,
                         const uint8_t *isint, const int64_t *size,
                         Scratch *s) {
    int64_t *early = s->ti, *cursor = s->queue, *late = s->items;
    int64_t l, e, entries = 0;
    for (l = 0; l < n; l++) {
        early[l] = late[l] = 0;
    }
    for (l = 0; l < n; l++) {
        int64_t u = order[l];
        for (e = off[u]; e < off[u + 1]; e++) {
            int64_t k = pos[nbr[e]];
            if (k >= l) {
                late[l]++;
                if (k > l) {
                    early[k]++;
                }
            }
        }
    }
    for (l = 0; l < n; l++) {
        entries += early[l] + late[l];
    }
    if (level_alloc(g, n, entries) != 0) {
        return -1;
    }
    g->off[0] = 0;
    for (l = 0; l < n; l++) {
        g->off[l + 1] = g->off[l] + early[l] + late[l];
        cursor[l] = g->off[l];
        late[l] = g->off[l] + early[l];
        g->size[l] = size[order[l]];
    }
    for (l = 0; l < n; l++) {
        int64_t u = order[l];
        for (e = off[u]; e < off[u + 1]; e++) {
            int64_t k = pos[nbr[e]], at;
            if (k < l) {
                continue;
            }
            at = late[l]++;
            g->nbr[at] = k;
            g->w[at] = w[e];
            g->isint[at] = isint[e];
            if (k > l) {
                at = cursor[k]++;
                g->nbr[at] = l;
                g->w[at] = w[e];
                g->isint[at] = isint[e];
            }
        }
    }
    return 0;
}

/* _heavy_edge_matching on a seeded generator: visit the nodes in
 * random.shuffle order and pair each unmatched one with its heaviest
 * unmatched neighbour (the first of equal weights).  Writes g->mem and
 * returns the number of groups. */
static int64_t heavy_edge_matching(Level *g, uint32_t *mt, int64_t *mti,
                                   Scratch *s) {
    int64_t *visit = s->items, v, t, e, groups = 0;
    uint8_t *matched = s->flag;
    for (v = 0; v < g->n; v++) {
        visit[v] = v;
        matched[v] = 0;
    }
    mc_shuffle(mt, mti, g->n, visit);
    for (t = 0; t < g->n; t++) {
        int64_t best = -1;
        double best_weight = -1.0;
        v = visit[t];
        if (matched[v]) {
            continue;
        }
        for (e = g->off[v]; e < g->off[v + 1]; e++) {
            int64_t u = g->nbr[e];
            if (matched[u] || u == v) {
                continue;
            }
            if (g->w[e] > best_weight) {
                best_weight = g->w[e];
                best = u;
            }
        }
        matched[v] = 1;
        g->mem[v] = groups;
        if (best >= 0) {
            matched[best] = 1;
            g->mem[best] = groups;
        }
        groups++;
    }
    return groups;
}

/* _contract: coarse node c is group c; a coarse edge sums its fine edges'
 * weights in edges() order (row by row, each edge from its first
 * endpoint), and each coarse row lists its neighbours in the order their
 * edges first appear there.  The coarse edges are numbered in that order
 * through an open-addressing table, so emitting them by number fills
 * every row in order. */
static int contract(const Level *g, int64_t groups, Level *c) {
    int64_t n = g->n, v, e, edges = 0, canonical = 0, mask = 1, id;
    int64_t *table = NULL, *ea = NULL, *eb = NULL, *cursor = NULL;
    double *ew = NULL;
    uint8_t *eint = NULL;
    int status = -1;
    for (v = 0; v < n; v++) {
        for (e = g->off[v]; e < g->off[v + 1]; e++) {
            canonical += g->nbr[e] >= v;
        }
    }
    while (mask < 2 * canonical + 1) {
        mask = 2 * mask + 1;
    }
    table = malloc((size_t)(mask + 1) * sizeof(int64_t));
    ea = malloc((size_t)(canonical + 1) * sizeof(int64_t));
    eb = malloc((size_t)(canonical + 1) * sizeof(int64_t));
    ew = malloc((size_t)(canonical + 1) * sizeof(double));
    eint = malloc((size_t)(canonical + 1));
    if (!table || !ea || !eb || !ew || !eint) {
        goto done;
    }
    memset(table, 0xff, (size_t)(mask + 1) * sizeof(int64_t));
    for (v = 0; v < n; v++) {
        int64_t cv = g->mem[v];
        for (e = g->off[v]; e < g->off[v + 1]; e++) {
            int64_t u = g->nbr[e], cu = g->mem[u], lo, hi, slot;
            if (u < v || cu == cv) {
                continue;
            }
            lo = cv < cu ? cv : cu;
            hi = cv < cu ? cu : cv;
            slot = (int64_t)(((uint64_t)lo * 0x9e3779b97f4a7c15ULL
                              ^ (uint64_t)hi * 0xc2b2ae3d27d4eb4fULL)
                             >> 17) & mask;
            for (;;) {
                id = table[slot];
                if (id < 0 || (ea[id] == lo && eb[id] == hi)
                    || (ea[id] == hi && eb[id] == lo)) {
                    break;
                }
                slot = (slot + 1) & mask;
            }
            if (id < 0) {
                id = table[slot] = edges++;
                ea[id] = cv;
                eb[id] = cu;
                ew[id] = g->w[e];
                eint[id] = g->isint[e];
            } else {
                ew[id] += g->w[e];
                eint[id] &= g->isint[e];
            }
        }
    }
    if (level_alloc(c, groups, 2 * edges) != 0) {
        goto done;
    }
    cursor = malloc((size_t)(groups + 1) * sizeof(int64_t));
    if (!cursor) {
        goto done;
    }
    for (v = 0; v <= groups; v++) {
        c->off[v] = 0;
    }
    for (v = 0; v < groups; v++) {
        c->size[v] = 0;
    }
    for (v = 0; v < n; v++) {
        c->size[g->mem[v]] += g->size[v];
    }
    for (id = 0; id < edges; id++) {
        c->off[ea[id] + 1]++;
        c->off[eb[id] + 1]++;
    }
    for (v = 0; v < groups; v++) {
        c->off[v + 1] += c->off[v];
        cursor[v] = c->off[v];
    }
    for (id = 0; id < edges; id++) {
        int64_t at = cursor[ea[id]]++;
        c->nbr[at] = eb[id];
        c->w[at] = ew[id];
        c->isint[at] = eint[id];
        at = cursor[eb[id]]++;
        c->nbr[at] = ea[id];
        c->w[at] = ew[id];
        c->isint[at] = eint[id];
    }
    status = 0;
done:
    free(table);
    free(ea);
    free(eb);
    free(ew);
    free(eint);
    free(cursor);
    return status;
}

/* _initial_bisection: grow the left side breadth-first from the first
 * node of largest weighted degree, children by descending edge weight;
 * when the frontier runs dry after an added node, restart from
 * rng.choice of the unvisited nodes.  The generator is seeded only when
 * it is first needed, as no other draw comes before. */
static void initial_bisection(Level *g, int64_t target, const Seed *seed,
                              int compensated, Scratch *s) {
    int64_t *queue = s->queue, *cand = s->items, head = 0, tail = 0;
    int64_t v, e, start = 0, left_size = 0, left_count = 0, mti = -1;
    uint8_t *visited = s->flag;
    uint32_t mt[MT_N];
    double best = 0.0;
    for (v = 0; v < g->n; v++) {
        int64_t count = g->off[v + 1] - g->off[v];
        double degree = py_sum(g->w + g->off[v], g->isint + g->off[v],
                               count, compensated);
        for (e = g->off[v]; e < g->off[v + 1]; e++) {
            if (g->nbr[e] == v) {
                degree += g->w[e];
            }
        }
        if (v == 0 || degree > best) {
            best = degree;
            start = v;
        }
        visited[v] = 0;
        g->left[v] = 0;
    }
    queue[tail++] = start;
    visited[start] = 1;
    while (head < tail && left_size < target) {
        int64_t count = 0, i;
        v = queue[head++];
        if (left_size + g->size[v] > target && left_count > 0) {
            continue;
        }
        g->left[v] = 1;
        left_count++;
        left_size += g->size[v];
        for (e = g->off[v]; e < g->off[v + 1]; e++) {
            if (!visited[g->nbr[e]]) {
                s->keys[count] = g->w[e];
                cand[count++] = g->nbr[e];
            }
        }
        sort_descending(cand, s->keys, count, s->ti, s->tk);
        for (i = 0; i < count; i++) {
            visited[cand[i]] = 1;
            queue[tail++] = cand[i];
        }
        if (head == tail) {
            int64_t remaining = 0, pick;
            for (i = 0; i < g->n; i++) {
                remaining += !visited[i];
            }
            if (remaining == 0) {
                continue;
            }
            if (mti < 0) {
                mc_seed(seed->words, seed->count, mt, &mti);
            }
            pick = mt_randbelow(mt, &mti, remaining); /* rng.choice */
            for (i = 0; i < g->n; i++) {
                if (!visited[i] && pick-- == 0) {
                    break;
                }
            }
            visited[i] = 1;
            queue[tail++] = i;
        }
    }
}

/* external - internal edge weight of node v, in row order. */
static double cut_gain(const Level *g, int64_t v) {
    double internal = 0.0, external = 0.0;
    int64_t e;
    for (e = g->off[v]; e < g->off[v + 1]; e++) {
        if (g->left[g->nbr[e]] == g->left[v]) {
            internal += g->w[e];
        } else {
            external += g->w[e];
        }
    }
    return external - internal;
}

/* _refine_bisection with its defaults (4 passes, balance tolerance 1):
 * each pass sorts the boundary nodes, taken in visit order (the order of
 * the oracle's vertex set; NULL for 0..n-1), by descending gain, and
 * moves each one whose current gain is positive unless the move breaks
 * the balance. */
static void refine_bisection(Level *g, const int64_t *visit, int64_t target,
                             Scratch *s) {
    int64_t *boundary = s->items, v, e, t, pass, left_size = 0;
    for (v = 0; v < g->n; v++) {
        left_size += g->left[v] ? g->size[v] : 0;
    }
    for (pass = 0; pass < 4; pass++) {
        int64_t count = 0, i;
        int moved = 0;
        for (t = 0; t < g->n; t++) {
            v = visit ? visit[t] : t;
            for (e = g->off[v]; e < g->off[v + 1]; e++) {
                if (g->left[g->nbr[e]] != g->left[v]) {
                    boundary[count++] = v;
                    break;
                }
            }
        }
        for (i = 0; i < count; i++) {
            s->keys[i] = cut_gain(g, boundary[i]);
        }
        sort_descending(boundary, s->keys, count, s->ti, s->tk);
        for (i = 0; i < count; i++) {
            int64_t new_size, slack;
            v = boundary[i];
            if (cut_gain(g, v) <= 0) {
                break;
            }
            new_size = g->left[v] ? left_size - g->size[v]
                                  : left_size + g->size[v];
            slack = left_size > target ? left_size - target
                                       : target - left_size;
            if ((new_size > target ? new_size - target : target - new_size)
                > 1 + slack) {
                continue;
            }
            g->left[v] = !g->left[v];
            left_size = new_size;
            moved = 1;
        }
        if (!moved) {
            break;
        }
    }
}

/* Slots of mc_bisect's parameter array (mirrored by repro.kernels.metrics). */
enum {
    BP_COUNT,       /* nodes bisected */
    BP_INDUCED,     /* 1: the subgraph order[0..count) induces; 0: the graph */
    BP_TARGET,      /* target_left */
    BP_THRESHOLD,   /* coarsen_threshold */
    BP_COMPENSATED, /* sum() compensates float adds (Python >= 3.12) */
    BP_NEGATIVE,    /* the seed is negative */
    BP_SEED_WORDS,  /* words of abs(seed) in seed[] */
    BP_SLOTS
};

/* bisect_left on the graph (off, nbr, w, isint, size) as is, or on the
 * subgraph induced by order[0..bp[BP_COUNT]): coarsen by
 * heavy-edge matching while a level has more than bp[BP_THRESHOLD] nodes
 * and the matching shrinks it (level l seeded with seed + l), bisect the
 * coarsest level, then project the cut back up, refining it on every
 * level.  The first level's refinement visits refine_order (whole-graph
 * nodes) in turn.  pos is whole-graph scratch that holds -1 on entry and
 * on return.  Writes the left side's positions in order (or nodes), in
 * ascending order, to left and returns how many there are, or -1 when
 * memory runs out. */
int64_t mc_bisect(const int64_t *bp, const int64_t *off, const int64_t *nbr,
                  const double *w, const uint8_t *isint, const int64_t *size,
                  const int64_t *order, const int64_t *refine_order,
                  int64_t *pos, int64_t *left, const uint32_t *seed_words) {
    int64_t n = bp[BP_COUNT], target = bp[BP_TARGET], depth = 0, cap = 0;
    int64_t l, v, mti, status = -1;
    int compensated = (int)bp[BP_COMPENSATED];
    Level *levels = NULL;
    Scratch s;
    Seed seed;
    uint32_t mt[MT_N];
    int64_t *visit = NULL;
    memset(&s, 0, sizeof(s));
    seed.count = bp[BP_SEED_WORDS];
    seed.negative = (int)bp[BP_NEGATIVE];
    seed.words = malloc((size_t)(seed.count + 1) * sizeof(uint32_t));
    s.items = malloc((size_t)(n + 1) * sizeof(int64_t));
    s.ti = malloc((size_t)(n + 1) * sizeof(int64_t));
    s.queue = malloc((size_t)(n + 1) * sizeof(int64_t));
    s.keys = malloc((size_t)(n + 1) * sizeof(double));
    s.tk = malloc((size_t)(n + 1) * sizeof(double));
    s.flag = malloc((size_t)(n + 1));
    visit = malloc((size_t)(n + 1) * sizeof(int64_t));
    cap = 8;
    levels = calloc((size_t)cap, sizeof(Level));
    if (!seed.words || !s.items || !s.ti || !s.queue || !s.keys || !s.tk
        || !s.flag || !visit || !levels) {
        goto done;
    }
    if (seed.count > 0) {
        memcpy(seed.words, seed_words, (size_t)seed.count * sizeof(uint32_t));
    }
    if (bp[BP_INDUCED]) {
        for (l = 0; l < n; l++) {
            pos[order[l]] = l;
        }
        status = build_induced(&levels[0], n, order, pos, off, nbr, w, isint,
                               size, &s);
        for (l = 0; l < n; l++) {
            visit[l] = pos[refine_order[l]];
        }
        for (l = 0; l < n; l++) {
            pos[order[l]] = -1;
        }
        if (status != 0) {
            goto done;
        }
        status = -1;
    } else {
        levels[0].n = n;
        levels[0].off = (int64_t *)off;
        levels[0].nbr = (int64_t *)nbr;
        levels[0].w = (double *)w;
        levels[0].isint = (uint8_t *)isint;
        levels[0].size = (int64_t *)size;
        memcpy(visit, refine_order, (size_t)n * sizeof(int64_t));
    }
    for (;;) {
        Level *g = &levels[depth];
        int64_t groups;
        g->left = malloc((size_t)(g->n + 1));
        if (!g->left) {
            goto done;
        }
        if (g->n <= 1) {
            for (v = 0; v < g->n; v++) {
                g->left[v] = 1;
            }
            break;
        }
        if (g->n > bp[BP_THRESHOLD]) {
            g->mem = malloc((size_t)g->n * sizeof(int64_t));
            if (!g->mem) {
                goto done;
            }
            mc_seed(seed.words, seed.count, mt, &mti);
            groups = heavy_edge_matching(g, mt, &mti, &s);
            if (groups < g->n) {
                if (depth + 1 == cap) {
                    Level *grown = realloc(levels,
                                           (size_t)(2 * cap) * sizeof(Level));
                    if (!grown) {
                        goto done;
                    }
                    levels = grown;
                    memset(levels + cap, 0, (size_t)cap * sizeof(Level));
                    cap *= 2;
                    g = &levels[depth];
                }
                if (contract(g, groups, &levels[depth + 1]) != 0) {
                    goto done;
                }
                depth++;
                seed_increment(&seed);
                continue;
            }
        }
        initial_bisection(g, target, &seed, compensated, &s);
        refine_bisection(g, depth == 0 ? visit : NULL, target, &s);
        break;
    }
    for (l = depth - 1; l >= 0; l--) {
        Level *g = &levels[l];
        for (v = 0; v < g->n; v++) {
            g->left[v] = levels[l + 1].left[g->mem[v]];
        }
        refine_bisection(g, l == 0 ? visit : NULL, target, &s);
    }
    status = 0;
    for (v = 0; v < n; v++) {
        if (levels[0].left[v]) {
            left[status++] = v;
        }
    }
done:
    if (levels) {
        for (l = 0; l < cap; l++) {
            level_free(&levels[l]);
        }
    }
    free(levels);
    free(seed.words);
    free(s.items);
    free(s.ti);
    free(s.queue);
    free(s.keys);
    free(s.tk);
    free(s.flag);
    free(visit);
    return status;
}
