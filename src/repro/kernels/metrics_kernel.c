/* Compiled fast engine for the incremental mapping-cost tracker.
 *
 * Mirrors the Python engines of repro/graphs/metrics.py (MappingCostTracker)
 * over flat arrays: segment endpoints seg[m*4] = (p_row, p_col, q_row, q_col),
 * midpoints mid[m*2], edge endpoint vertices eu/ev[m], per-edge full
 * midpoint-distance row sums R[m], and a dense clamped bucket grid
 * (cell_count / cell_items / per-edge clamped cell ranges edge_range[m*4] =
 * {row_lo, row_hi, col_lo, col_hi}).
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
 * input.  The clamped dense grid may produce *larger* candidate sets than
 * the unbounded Python dict grid (out-of-range cells clamp onto the border),
 * but candidates are only pruning: the exact bbox + orientation tests keep
 * the counted pair set identical.
 *
 * int-params array ip = { m, pad, origin_row, origin_col, n_rows, n_cols,
 * cap }.  All functions are single-threaded over caller-owned buffers.
 *
 * mc_sweep (at the end) runs a whole force-directed annealing sweep over
 * this state: the force pass and steps (mc_forces) and the proposal loop
 * of repro.mapping.force_directed, with a replica of CPython's
 * random.random() for the Boltzmann test.  mc_hop_sweep (after it) runs
 * one sweep of the permutation-hop annealer of repro.mapping.stitching on
 * the same crossing predicates.
 */

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
/* Dense clamped cell grid                                             */
/* ------------------------------------------------------------------ */

static int64_t clampi(int64_t value, int64_t lo, int64_t hi) {
    if (value < lo) {
        return lo;
    }
    if (value > hi) {
        return hi;
    }
    return value;
}

/* Clamped cell range of one segment; out = {row_lo, row_hi, col_lo, col_hi}. */
static void cell_range(const double *seg, double bucket, const int64_t *ip,
                       int64_t *out) {
    double row_min = seg[0] < seg[2] ? seg[0] : seg[2];
    double row_max = seg[0] < seg[2] ? seg[2] : seg[0];
    double col_min = seg[1] < seg[3] ? seg[1] : seg[3];
    double col_max = seg[1] < seg[3] ? seg[3] : seg[1];
    int64_t origin_row = ip[2], origin_col = ip[3];
    int64_t n_rows = ip[4], n_cols = ip[5];
    out[0] = clampi((int64_t)floor(row_min / bucket), origin_row,
                    origin_row + n_rows - 1);
    out[1] = clampi((int64_t)floor(row_max / bucket), origin_row,
                    origin_row + n_rows - 1);
    out[2] = clampi((int64_t)floor(col_min / bucket), origin_col,
                    origin_col + n_cols - 1);
    out[3] = clampi((int64_t)floor(col_max / bucket), origin_col,
                    origin_col + n_cols - 1);
}

static int64_t grid_insert(int64_t edge, const int64_t *range,
                           const int64_t *ip, int64_t *cell_count,
                           int64_t *cell_items) {
    int64_t origin_row = ip[2], origin_col = ip[3];
    int64_t n_cols = ip[5], cap = ip[6];
    int64_t row, col;
    for (row = range[0]; row <= range[1]; row++) {
        for (col = range[2]; col <= range[3]; col++) {
            int64_t cell = (row - origin_row) * n_cols + (col - origin_col);
            if (cell_count[cell] >= cap) {
                return -1;
            }
            cell_items[cell * cap + cell_count[cell]] = edge;
            cell_count[cell] += 1;
        }
    }
    return 0;
}

static void grid_remove(int64_t edge, const int64_t *range,
                        const int64_t *ip, int64_t *cell_count,
                        int64_t *cell_items) {
    int64_t origin_row = ip[2], origin_col = ip[3];
    int64_t n_cols = ip[5], cap = ip[6];
    int64_t row, col, slot;
    for (row = range[0]; row <= range[1]; row++) {
        for (col = range[2]; col <= range[3]; col++) {
            int64_t cell = (row - origin_row) * n_cols + (col - origin_col);
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
                      int64_t *cell_count, int64_t *cell_items,
                      int64_t *edge_range) {
    int64_t m = ip[0], n_cells = ip[4] * ip[5];
    int64_t i;
    for (i = 0; i < n_cells; i++) {
        cell_count[i] = 0;
    }
    for (i = 0; i < m; i++) {
        cell_range(seg + 4 * i, bucket, ip, edge_range + 4 * i);
        if (grid_insert(i, edge_range + 4 * i, ip, cell_count,
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
                           const int64_t *eu, const int64_t *ev,
                           const int64_t *edge_range,
                           const int64_t *cell_count,
                           const int64_t *cell_items,
                           int64_t *stamp, int64_t *gen, int64_t *crossC) {
    int64_t m = ip[0];
    int64_t origin_row = ip[2], origin_col = ip[3];
    int64_t n_cols = ip[5], cap = ip[6];
    int64_t crossings = 0;
    int64_t i, row, col, slot;
    for (i = 0; i < m; i++) {
        crossC[i] = 0;
    }
    for (i = 0; i < m; i++) {
        const int64_t *range = edge_range + 4 * i;
        int64_t g = ++(*gen);
        for (row = range[0]; row <= range[1]; row++) {
            for (col = range[2]; col <= range[3]; col++) {
                int64_t cell = (row - origin_row) * n_cols + (col - origin_col);
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

/* Crossings of one query segment against the grid, skipping every changed
 * edge (cflag[edge] != 0; changed-vs-changed pairs are enumerated
 * separately).  When cross_adjust is non-NULL, every crossing partner has
 * cross_adjust[other] bumped by delta — the commit path uses this to keep
 * the per-edge crossing-count cache current. */
static int64_t cross_vs_grid(const double *query_seg, const int64_t *range,
                             int64_t self_u, int64_t self_v,
                             const int64_t *cflag,
                             const int64_t *ip, const double *seg,
                             const int64_t *eu, const int64_t *ev,
                             const int64_t *cell_count,
                             const int64_t *cell_items,
                             int64_t *stamp, int64_t *gen,
                             int64_t *cross_adjust, int64_t delta) {
    int64_t origin_row = ip[2], origin_col = ip[3];
    int64_t n_cols = ip[5], cap = ip[6];
    int64_t count_crossing = 0;
    int64_t g = ++(*gen);
    int64_t row, col, slot;
    double q_row_lo = (query_seg[0] < query_seg[2] ? query_seg[0]
                                                   : query_seg[2]) - TOL;
    double q_row_hi = (query_seg[0] < query_seg[2] ? query_seg[2]
                                                   : query_seg[0]) + TOL;
    double q_col_lo = (query_seg[1] < query_seg[3] ? query_seg[1]
                                                   : query_seg[3]) - TOL;
    double q_col_hi = (query_seg[1] < query_seg[3] ? query_seg[3]
                                                   : query_seg[1]) + TOL;
    for (row = range[0]; row <= range[1]; row++) {
        for (col = range[2]; col <= range[3]; col++) {
            int64_t cell = (row - origin_row) * n_cols + (col - origin_col);
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

/* Evaluate one move of k edges without mutating any state.
 *
 * Outputs: newrow_out[t] = tree-folded distance row from the new midpoint
 * of changed[t] to every unchanged midpoint (changed columns zeroed);
 * cross_out = {old crossings touching a changed edge, new crossings}.
 * The old count comes from the per-edge crossing cache crossC (maintained
 * by mc_commit): sum over changed edges counts changed-vs-changed pairs
 * twice, so one intra-block count is subtracted back out — exact integer
 * arithmetic, identical to re-scanning the old segments.  The caller
 * assembles the cost delta from these plus R (old rows) and the tiny
 * intra-changed midpoint terms, identically across engines. */
static void eval_move(const int64_t *ip, double bucket, int64_t k,
                      const int64_t *changed, const double *newseg,
                      const double *newmid, const double *seg,
                      const double *mid, const int64_t *eu,
                      const int64_t *ev, const int64_t *crossC,
                      int64_t *cflag,
                      const int64_t *cell_count, const int64_t *cell_items,
                      int64_t *stamp, int64_t *gen, double *scratch,
                      double *newrow_out, int64_t *cross_out) {
    int64_t m = ip[0], pad = ip[1];
    int64_t t, u, j;
    int64_t old_crossings = 0, new_crossings = 0;
    int64_t new_range[4];

    for (t = 0; t < k; t++) {
        cflag[changed[t]] = 1;
        old_crossings += crossC[changed[t]];
    }
    for (t = 0; t < k; t++) {
        int64_t i = changed[t];
        cell_range(newseg + 4 * t, bucket, ip, new_range);
        new_crossings += cross_vs_grid(
            newseg + 4 * t, new_range, eu[i], ev[i], cflag,
            ip, seg, eu, ev, cell_count, cell_items, stamp, gen, 0, 0);
    }
    /* Old intra block reads the current segments of the changed edges. */
    for (t = 0; t < k; t++) {
        int64_t i = changed[t];
        scratch[4 * t] = seg[4 * i];
        scratch[4 * t + 1] = seg[4 * i + 1];
        scratch[4 * t + 2] = seg[4 * i + 2];
        scratch[4 * t + 3] = seg[4 * i + 3];
    }
    old_crossings -= cross_intra(scratch, changed, k, eu, ev);
    new_crossings += cross_intra(newseg, changed, k, eu, ev);
    for (t = 0; t < k; t++) {
        cflag[changed[t]] = 0;
    }
    cross_out[0] = old_crossings;
    cross_out[1] = new_crossings;

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

void mc_eval(const int64_t *ip, double bucket, int64_t k,
             const int64_t *changed, const double *newseg,
             const double *newmid, const double *seg, const double *mid,
             const int64_t *eu, const int64_t *ev,
             const int64_t *crossC, int64_t *cflag,
             const int64_t *cell_count,
             const int64_t *cell_items, int64_t *stamp, int64_t *gen,
             double *scratch, double *newrow_out, int64_t *cross_out) {
    eval_move(ip, bucket, k, changed, newseg, newmid, seg, mid, eu, ev,
              crossC, cflag, cell_count, cell_items, stamp, gen, scratch,
              newrow_out, cross_out);
}

/* ------------------------------------------------------------------ */
/* Committing a move                                                   */
/* ------------------------------------------------------------------ */

/* Fold an evaluated move into the state arrays.  R maintenance runs in a
 * fixed canonical order (elementwise adjust against the old midpoints in
 * ascending changed order, then fresh tree-folded rows for the changed
 * edges) that the Python engines replicate exactly.  Returns -1 when a
 * grid cell overflows cap: seg/mid/R are already updated, and the caller
 * rebuilds the grid from seg with a larger cap. */
int64_t mc_commit(const int64_t *ip, double bucket, int64_t k,
                  const int64_t *changed, const double *newseg,
                  const double *newmid, double *seg, double *mid,
                  double *R, int64_t *cell_count, int64_t *cell_items,
                  int64_t *edge_range, double *scratch,
                  const int64_t *eu, const int64_t *ev,
                  int64_t *stamp, int64_t *gen, int64_t *crossC,
                  int64_t *cflag) {
    int64_t m = ip[0], pad = ip[1];
    int64_t t, u, j;
    int64_t status = 0;
    int64_t new_range[4];

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
        cross_vs_grid(seg + 4 * i, edge_range + 4 * i, eu[i], ev[i], cflag,
                      ip, seg, eu, ev, cell_count, cell_items, stamp, gen,
                      crossC, -1);
        cell_range(newseg + 4 * t, bucket, ip, new_range);
        crossC[i] = cross_vs_grid(
            newseg + 4 * t, new_range, eu[i], ev[i], cflag,
            ip, seg, eu, ev, cell_count, cell_items, stamp, gen,
            crossC, +1);
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
    for (t = 0; t < k; t++) {
        int64_t i = changed[t];
        grid_remove(i, edge_range + 4 * i, ip, cell_count, cell_items);
        cell_range(newseg + 4 * t, bucket, ip, edge_range + 4 * i);
        if (status == 0
            && grid_insert(i, edge_range + 4 * i, ip, cell_count,
                           cell_items) != 0) {
            status = -1;
        }
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
    SP_DRAWS,      /* random.random() draws made */
    SP_PROPOSED,   /* proposals evaluated */
    SP_ACCEPTED,   /* accepted moves = rows written to the move log */
    SP_IMPROVING,  /* accepted moves with a negative delta */
    SP_CROSSINGS,  /* committed crossing count */
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

/* Cost delta of an evaluated move, in exactly the float order of the
 * tracker's _assemble_delta; after = {total_length, weighted_length,
 * spacing_sum, cost} and *crossings_after describe the post-move state. */
static double move_delta(const int64_t *ip, int64_t k, const int64_t *changed,
                         const double *newseg, const double *newmid,
                         const double *seg, const double *mid,
                         const double *R, const double *weight,
                         const double *newrow, const int64_t *cross,
                         const int64_t *sp, const double *dp,
                         double *after, int64_t *crossings_after) {
    double total_length = dp[DP_TOTAL_LENGTH];
    double weighted_length = dp[DP_WEIGHTED_LENGTH];
    double old_spacing = 0.0, new_spacing = 0.0;
    int64_t t, u;
    for (t = 0; t < k; t++) {
        const double *s = seg + 4 * changed[t];
        const double *ns = newseg + 4 * t;
        double old_len = fabs(s[0] - s[2]) + fabs(s[1] - s[3]);
        double new_len = fabs(ns[0] - ns[2]) + fabs(ns[1] - ns[3]);
        total_length += new_len - old_len;
        weighted_length += weight[changed[t]] * (new_len - old_len);
    }
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
    *crossings_after = sp[SP_CROSSINGS] + (cross[1] - cross[0]);
    after[0] = total_length;
    after[1] = weighted_length;
    after[2] = dp[DP_SPACING_SUM] + (new_spacing - old_spacing);
    after[3] = combined_cost(dp, ip[0], *crossings_after, total_length,
                             after[2]);
    return after[3] - dp[DP_COST];
}

/* Run proposals order[sp[SP_START]..sp[SP_COUNT]) of one annealing sweep:
 * the sequential proposal loop of repro.mapping.force_directed, whose
 * Python form is the oracle this must match bit for bit.
 *
 * A sweep starting at proposal 0 first runs the force pass (mc_forces)
 * over the movers' current cells and writes every proposal's step into
 * step[2p], step[2p+1]; a resumed sweep reuses those steps.  Proposal p
 * moves vertex order[p] by that step (vertices are indices into
 * pos[nv*2] = placement cells, movers first; ea/eb[m] are the edge
 * endpoints in that index space, inc_off/inc_edge their ascending
 * incident-edge lists).  A zero step or an off-grid target is skipped
 * without counting; otherwise the target's occupant (occ[height*width],
 * -1 when free) swaps into the vertex's cell, the move is evaluated
 * against the tracker state, and it is accepted when
 * delta <= 0 or (temperature > 1e-9 and random() < exp(-delta / T)) --
 * one draw only when the first test fails, exactly like Python's `or`.
 * Accepted moves are committed (mc_commit), applied to pos/occ, counted,
 * and logged as rows log[3j..3j+2] = {vertex, target_row, target_col}.
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
                 int64_t *edge_range, int64_t *stamp, int64_t *gen,
                 double *scratch, int64_t *changed, double *newseg,
                 double *newmid, double *newrow,
                 const double *weight, const int64_t *ea, const int64_t *eb,
                 const int64_t *inc_off, const int64_t *inc_edge,
                 int64_t *pos, int64_t *occ,
                 const int64_t *order, int64_t *step,
                 uint32_t *mt, int64_t *sp, double *dp, int64_t *log,
                 const int64_t *fp, const double *fw,
                 const int64_t *nbr_off, const int64_t *nbr_idx,
                 const int64_t *fe_u, const int64_t *fe_v,
                 const int64_t *pole, double *fbuf, int64_t *ibuf) {
    int64_t height = sp[SP_HEIGHT], width = sp[SP_WIDTH];
    double temperature = dp[DP_TEMPERATURE];
    int64_t p;
    if (sp[SP_START] == 0
        && mc_forces(fp, fw, nbr_off, nbr_idx, fe_u, fe_v, pole, pos,
                     sp[SP_COUNT], order, fbuf, ibuf, step) != 0) {
        return STATUS_NAN_FORCE;
    }
    for (p = sp[SP_START]; p < sp[SP_COUNT]; p++) {
        int64_t v = order[p];
        int64_t d_row = step[2 * p], d_col = step[2 * p + 1];
        int64_t row, col, t_row, t_col, occupant, k, t;
        int64_t cross[2];
        int64_t crossings_after = 0;
        double after[4] = {0.0, 0.0, 0.0, 0.0};
        double delta = 0.0;
        int accept;
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
            eval_move(ip, bucket, k, changed, newseg, newmid, seg, mid, eu,
                      ev, crossC, cflag, cell_count, cell_items, stamp, gen,
                      scratch, newrow, cross);
            delta = move_delta(ip, k, changed, newseg, newmid, seg, mid, R,
                               weight, newrow, cross, sp, dp, after,
                               &crossings_after);
        }
        accept = delta <= 0.0;
        if (!accept && temperature > 1e-9) {
            sp[SP_DRAWS] += 1;
            accept = mt_random(mt, &sp[SP_MT_INDEX]) < exp(-delta / temperature);
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
        log[3 * sp[SP_ACCEPTED]] = v;
        log[3 * sp[SP_ACCEPTED] + 1] = t_row;
        log[3 * sp[SP_ACCEPTED] + 2] = t_col;
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
                          R, cell_count, cell_items, edge_range, scratch, eu,
                          ev, stamp, gen, crossC, cflag) != 0) {
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
