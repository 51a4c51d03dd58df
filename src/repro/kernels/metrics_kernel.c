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
 * repro.mapping.stitching on the same crossing predicates.
 */

#include <float.h>
#include <stdint.h>
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

/* random.shuffle(items[0..n)), n < 2**32: for i from n - 1 down to 1,
 * _randbelow(i + 1) draws getrandbits(k) for k = (i + 1).bit_length(),
 * which for k <= 32 is one 32-bit word shifted right by 32 - k, and draws
 * again while the result exceeds i; then items i and r swap.  Exported for
 * the parity test; mc_sweep shuffles its proposal order with it. */
void mc_shuffle(uint32_t *mt, int64_t *index, int64_t n, int64_t *items) {
    int64_t i;
    for (i = n - 1; i > 0; i--) {
        uint64_t bound = (uint64_t)i + 1;
        uint64_t r;
        int64_t swap;
        int k = 0;
        while (bound >> k) {
            k++;
        }
        do {
            r = mt_next(mt, index) >> (32 - k);
        } while (r >= bound);
        swap = items[i];
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
