/* batchsim_kernel.c — compiled event loop of the braid simulator.
 *
 * Exact C port of simulate_reference in repro/routing/simulator.py: its
 * routing decisions and its shadow wake rule.  Driven by
 * repro/routing/batchsim.py one sweep point at a time over a candidate
 * table that every point on the same placement shares.
 *
 * Candidate table.  Every route candidate rectilinear_candidates produces
 * between two cells inside the lattice is an L-shaped path: two endpoint
 * cells, one horizontal run and one vertical run.  A candidate is
 * therefore stored as one fixed-width int32 row (the F_* fields below:
 * endpoints, horizontal run, vertical run, cell count), independent of the
 * lattice size; the kernel derives its conflict probes and lock/free bits
 * from those coordinates.
 *
 * Occupancy.  Each point keeps a dual row/column bitboard sized to its
 * own lattice (H rows, W columns): rw = ceil(W / 64) words per lattice row
 * (bit = column), then cw = ceil(H / 64) words per lattice column (bit =
 * row).  A candidate's conflict test is two endpoint bits, the horizontal
 * run against its row words and the vertical run against its column
 * words, so it costs O(words), not O(cells); locking and freeing touch
 * every cell of the candidate in both boards.
 *
 * Two entry points, loaded via ctypes by repro/routing/kernel.py:
 *
 *   build_plans     — the candidate rows of many endpoint pairs,
 *                     replicating rectilinear_candidates' channel
 *                     enumeration and generation-order dedup by cell set.
 *   simulate_point  — one sweep point's full event loop, byte-identical
 *                     to simulate_reference.
 *
 * Exactness notes mirrored from the reference:
 *   - attempts pop from a min-heap of gate indices (program order);
 *   - with no braid in flight the locked set is empty, so candidate 0 of
 *     each route or leg is taken without probing;
 *   - a blocked candidate contributes the lowest cell of its overlap with
 *     the locked set in row-major order; the minimum over the endpoint
 *     bits, the first hit of the horizontal run and the first hit of the
 *     vertical run is exactly that cell.  Cells are numbered r * 64 * rw
 *     + c, which preserves row-major order;
 *   - a star watches its first failing leg; a hop braid routes source ->
 *     hop, then hop -> target, and when either leg is blocked it watches
 *     that leg's cells plus those of the direct route it falls back to;
 *   - stall accounting: first_stall latches the retirement-step counter at
 *     first park, stall_events accrues scan - first at issue;
 *   - wakeups: one per parked gate with a watch cell freed during a
 *     retirement step.  Watch cells are locked when recorded, and only
 *     retirements unlock cells, so after a step's retirements a watch cell
 *     is free exactly when that step freed it; the reference's shadow
 *     accounting wakes the same set;
 *   - max_cycles raises only when an event time exceeds the limit with
 *     gates still unfinished (the reference checks at the top of the next
 *     loop iteration, which only runs while completed < n).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define ERR_OK 0
#define ERR_MAX_CYCLES 1
#define ERR_DEADLOCK 2
#define ERR_ALLOC 3

#define MAX_CANDIDATES 8      /* a plan holds at most 4 + 4 shapes */
#define WATCH_SLOTS (2 * MAX_CANDIDATES)   /* a hop leg plus the direct route */

/* Gate kinds (the per-gate `kind` array, shared with batchsim.py). */
enum { KIND_PLAIN = 0, KIND_PAIR, KIND_STAR, KIND_HOP };

/* Candidate row layout (int32 fields), shared with kernel.py. */
enum {
    F_SR = 0, F_SC, F_TR, F_TC,   /* endpoint cells (source, target) */
    F_HROW, F_HA, F_HB,           /* horizontal run: row, first..last col */
    F_VCOL, F_VA, F_VB,           /* vertical run: col, first..last row */
    F_CELLS,                      /* distinct cells of the candidate */
    CAND_FIELDS
};

/* ---- min-heap of gate indices (the attempt queue) ------------------ */

static void ipush(int64_t *heap, int64_t *size, int64_t value)
{
    int64_t i = (*size)++;
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        if (heap[parent] <= value)
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = value;
}

static int64_t ipop(int64_t *heap, int64_t *size)
{
    int64_t top = heap[0];
    int64_t last = heap[--(*size)];
    int64_t n = *size;
    int64_t i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heap[child + 1] < heap[child])
            child++;
        if (heap[child] >= last)
            break;
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = last;
    return top;
}

/* ---- min-heap of (time, gate) events (active braids) --------------- */

typedef struct {
    int64_t t;
    int64_t g;
} event_t;

static int ev_lt(event_t a, event_t b)
{
    return a.t < b.t || (a.t == b.t && a.g < b.g);
}

static void epush(event_t *heap, int64_t *size, event_t value)
{
    int64_t i = (*size)++;
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        if (!ev_lt(value, heap[parent]))
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = value;
}

static event_t epop(event_t *heap, int64_t *size)
{
    event_t top = heap[0];
    event_t last = heap[--(*size)];
    int64_t n = *size;
    int64_t i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && ev_lt(heap[child + 1], heap[child]))
            child++;
        if (!ev_lt(heap[child], last))
            break;
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = last;
    return top;
}

/* ---- bit ranges ----------------------------------------------------- */

static int get_bit(const uint64_t *words, int64_t idx)
{
    return (int)((words[idx >> 6] >> (idx & 63)) & 1u);
}

/* Sets a bit; returns 1 when it was clear. */
static int64_t set_bit(uint64_t *words, int64_t idx)
{
    uint64_t bit = 1ull << (idx & 63);
    uint64_t *word = words + (idx >> 6);
    int64_t added = (*word & bit) == 0;
    *word |= bit;
    return added;
}

static void clear_bit(uint64_t *words, int64_t idx)
{
    words[idx >> 6] &= ~(1ull << (idx & 63));
}

/* Bits lo..hi (inclusive) of word w, for lo <= hi. */
static uint64_t word_mask(int64_t w, int64_t lo, int64_t hi)
{
    uint64_t mask = ~0ull;
    if (w == lo >> 6)
        mask &= ~0ull << (lo & 63);
    if (w == hi >> 6)
        mask &= ~0ull >> (63 - (hi & 63));
    return mask;
}

/* Lowest set bit index in lo..hi, or -1. */
static int64_t first_set(const uint64_t *words, int64_t lo, int64_t hi)
{
    for (int64_t w = lo >> 6; w <= hi >> 6; w++) {
        uint64_t hit = words[w] & word_mask(w, lo, hi);
        if (hit)
            return (w << 6) + __builtin_ctzll(hit);
    }
    return -1;
}

/* Sets bits lo..hi; returns how many were clear. */
static int64_t set_range(uint64_t *words, int64_t lo, int64_t hi)
{
    int64_t added = 0;
    for (int64_t w = lo >> 6; w <= hi >> 6; w++) {
        uint64_t mask = word_mask(w, lo, hi);
        added += __builtin_popcountll(mask & ~words[w]);
        words[w] |= mask;
    }
    return added;
}

static void clear_range(uint64_t *words, int64_t lo, int64_t hi)
{
    for (int64_t w = lo >> 6; w <= hi >> 6; w++)
        words[w] &= ~word_mask(w, lo, hi);
}

/* ---- the dual occupancy board -------------------------------------- */

typedef struct {
    uint64_t *rows;   /* bit r * rs + c: cell (r, c) */
    uint64_t *cols;   /* bit c * cs + r: cell (r, c) */
    int64_t rs;       /* 64 * words per lattice row */
    int64_t cs;       /* 64 * words per lattice column */
} board_t;

static int64_t lock_cell(board_t *b, int64_t r, int64_t c)
{
    set_bit(b->cols, c * b->cs + r);
    return set_bit(b->rows, r * b->rs + c);
}

static void free_cell(board_t *b, int64_t r, int64_t c)
{
    clear_bit(b->cols, c * b->cs + r);
    clear_bit(b->rows, r * b->rs + c);
}

/* Locks every cell of a candidate; returns how many were free (so a
 * star's legs, which may share cells, count their union once). */
static int64_t lock_cand(board_t *b, const int32_t *cand)
{
    int64_t hrow = cand[F_HROW], vcol = cand[F_VCOL];
    int64_t added = lock_cell(b, cand[F_SR], cand[F_SC])
        + lock_cell(b, cand[F_TR], cand[F_TC]);
    added += set_range(b->rows, hrow * b->rs + cand[F_HA],
                       hrow * b->rs + cand[F_HB]);
    for (int64_t c = cand[F_HA]; c <= cand[F_HB]; c++)
        set_bit(b->cols, c * b->cs + hrow);
    set_range(b->cols, vcol * b->cs + cand[F_VA], vcol * b->cs + cand[F_VB]);
    for (int64_t r = cand[F_VA]; r <= cand[F_VB]; r++)
        added += set_bit(b->rows, r * b->rs + vcol);
    return added;
}

/* Frees every cell of a candidate.  Braids in flight never share a cell
 * (each candidate was free when issued), so this frees only its own. */
static void free_cand(board_t *b, const int32_t *cand)
{
    int64_t hrow = cand[F_HROW], vcol = cand[F_VCOL];
    free_cell(b, cand[F_SR], cand[F_SC]);
    free_cell(b, cand[F_TR], cand[F_TC]);
    clear_range(b->rows, hrow * b->rs + cand[F_HA], hrow * b->rs + cand[F_HB]);
    for (int64_t c = cand[F_HA]; c <= cand[F_HB]; c++)
        clear_bit(b->cols, c * b->cs + hrow);
    clear_range(b->cols, vcol * b->cs + cand[F_VA], vcol * b->cs + cand[F_VB]);
    for (int64_t r = cand[F_VA]; r <= cand[F_VB]; r++)
        clear_bit(b->rows, r * b->rs + vcol);
}

/* -1 when the candidate is free; otherwise its lowest locked cell in
 * row-major order, numbered r * rs + c. */
static int64_t probe_cand(const board_t *b, const int32_t *cand)
{
    int64_t rs = b->rs, best = -1, cell;
    int64_t hrow = cand[F_HROW], vcol = cand[F_VCOL];
    cell = first_set(b->rows, hrow * rs + cand[F_HA], hrow * rs + cand[F_HB]);
    if (cell >= 0)
        best = cell;
    int64_t base = vcol * b->cs;
    cell = first_set(b->cols, base + cand[F_VA], base + cand[F_VB]);
    if (cell >= 0) {
        cell = (cell - base) * rs + vcol;
        if (best < 0 || cell < best)
            best = cell;
    }
    cell = (int64_t)cand[F_SR] * rs + cand[F_SC];
    if (get_bit(b->rows, cell) && (best < 0 || cell < best))
        best = cell;
    cell = (int64_t)cand[F_TR] * rs + cand[F_TC];
    if (get_bit(b->rows, cell) && (best < 0 || cell < best))
        best = cell;
    return best;
}

/* ---- candidate-plan generation ------------------------------------- */

static int cand_has(const int32_t *cand, int64_t r, int64_t c)
{
    return (r == cand[F_SR] && c == cand[F_SC])
        || (r == cand[F_TR] && c == cand[F_TC])
        || (r == cand[F_HROW] && c >= cand[F_HA] && c <= cand[F_HB])
        || (c == cand[F_VCOL] && r >= cand[F_VA] && r <= cand[F_VB]);
}

/* Count, row sum, column sum and row-column product sum of a cell set:
 * a cheap exact invariant, so most distinct candidates are told apart
 * without comparing cells. */
typedef struct {
    int64_t n, r, c, rc;
} moments_t;

static void add_run(moments_t *m, int64_t sign, int64_t r0, int64_t r1,
                    int64_t c0, int64_t c1)
{
    /* cells (r, c) for r0 <= r <= r1, c0 <= c <= c1; one of the ranges
     * is a single value */
    int64_t nr = r1 - r0 + 1, nc = c1 - c0 + 1;
    int64_t sum_r = (r0 + r1) * nr / 2, sum_c = (c0 + c1) * nc / 2;
    m->n += sign * nr * nc;
    m->r += sign * sum_r * nc;
    m->c += sign * sum_c * nr;
    m->rc += sign * sum_r * sum_c;
}

static moments_t cand_moments(const int32_t *cand)
{
    moments_t m = { 0, 0, 0, 0 };
    int64_t hrow = cand[F_HROW], vcol = cand[F_VCOL];
    add_run(&m, 1, hrow, hrow, cand[F_HA], cand[F_HB]);
    add_run(&m, 1, cand[F_VA], cand[F_VB], vcol, vcol);
    if (hrow >= cand[F_VA] && hrow <= cand[F_VB]
        && vcol >= cand[F_HA] && vcol <= cand[F_HB])
        add_run(&m, -1, hrow, hrow, vcol, vcol);      /* the shared corner */
    int source_on_runs =
        (cand[F_SR] == hrow && cand[F_SC] >= cand[F_HA] && cand[F_SC] <= cand[F_HB])
        || (cand[F_SC] == vcol && cand[F_SR] >= cand[F_VA] && cand[F_SR] <= cand[F_VB]);
    int target_on_runs =
        (cand[F_TR] == hrow && cand[F_TC] >= cand[F_HA] && cand[F_TC] <= cand[F_HB])
        || (cand[F_TC] == vcol && cand[F_TR] >= cand[F_VA] && cand[F_TR] <= cand[F_VB]);
    if (!source_on_runs)
        add_run(&m, 1, cand[F_SR], cand[F_SR], cand[F_SC], cand[F_SC]);
    if (!target_on_runs && !(cand[F_TR] == cand[F_SR] && cand[F_TC] == cand[F_SC]))
        add_run(&m, 1, cand[F_TR], cand[F_TR], cand[F_TC], cand[F_TC]);
    return m;
}

/* Whether two candidates cover the same cells (a must have b's count). */
static int same_cells(const int32_t *a, const int32_t *b)
{
    if (!cand_has(b, a[F_SR], a[F_SC]) || !cand_has(b, a[F_TR], a[F_TC]))
        return 0;
    for (int64_t c = a[F_HA]; c <= a[F_HB]; c++)
        if (!cand_has(b, a[F_HROW], c))
            return 0;
    for (int64_t r = a[F_VA]; r <= a[F_VB]; r++)
        if (!cand_has(b, r, a[F_VCOL]))
            return 0;
    return 1;
}

/* Appends the candidate source -> (hrow, h0..h1) / (vcol, v0..v1) ->
 * target unless an earlier one covers the same cells (the router's
 * generation-order dedup by cell set). */
static int64_t emit_candidate(int32_t *rows, moments_t *seen, int64_t kept,
                              int64_t sr, int64_t sc, int64_t tr, int64_t tc,
                              int64_t hrow, int64_t h0, int64_t h1,
                              int64_t vcol, int64_t v0, int64_t v1)
{
    int32_t *cand = rows + kept * CAND_FIELDS;
    cand[F_SR] = (int32_t)sr;
    cand[F_SC] = (int32_t)sc;
    cand[F_TR] = (int32_t)tr;
    cand[F_TC] = (int32_t)tc;
    cand[F_HROW] = (int32_t)hrow;
    cand[F_HA] = (int32_t)(h0 <= h1 ? h0 : h1);
    cand[F_HB] = (int32_t)(h0 <= h1 ? h1 : h0);
    cand[F_VCOL] = (int32_t)vcol;
    cand[F_VA] = (int32_t)(v0 <= v1 ? v0 : v1);
    cand[F_VB] = (int32_t)(v0 <= v1 ? v1 : v0);
    moments_t m = cand_moments(cand);
    cand[F_CELLS] = (int32_t)m.n;
    for (int64_t i = 0; i < kept; i++)
        if (seen[i].n == m.n && seen[i].r == m.r && seen[i].c == m.c
            && seen[i].rc == m.rc
            && same_cells(cand, rows + i * CAND_FIELDS))
            return kept;
    seen[kept] = m;
    return kept + 1;
}

/* Candidate rows for one endpoint pair: the channel enumeration of
 * rectilinear_candidates (row-first, then column-first L shapes), with
 * duplicate cell sets dropped in generation order.  `rows` must hold
 * MAX_CANDIDATES rows.  Returns how many were kept, or -1 when the pair
 * has no such plan here: a channel coordinate would be negative, or the
 * endpoints coincide (the router's single-cell special case) — callers
 * then simulate the point with simulate_reference.  Endpoints must lie
 * inside the lattice; callers keep off-lattice hops out. */
static int64_t build_plan(int64_t sr, int64_t sc, int64_t tr, int64_t tc,
                          int64_t max_row, int64_t max_col, int32_t *rows)
{
    if (sr < 1 || sc < 1 || tr < 1 || tc < 1 || (sr == tr && sc == tc))
        return -1;
    moments_t seen[MAX_CANDIDATES];
    int64_t kept = 0;
    int64_t row_opts[2] = { sr - 1, sr + 1 < max_row ? sr + 1 : max_row };
    int64_t col_opts[2] = { tc - 1, tc + 1 < max_col ? tc + 1 : max_col };
    for (int a = 0; a < 2; a++)
        for (int b = 0; b < 2; b++) {
            int64_t cr = row_opts[a], cc = col_opts[b];
            kept = emit_candidate(rows, seen, kept, sr, sc, tr, tc,
                                  cr, sc, cc, cc, cr, tr);
        }
    int64_t col_opts2[2] = { sc - 1, sc + 1 < max_col ? sc + 1 : max_col };
    int64_t row_opts2[2] = { tr - 1, tr + 1 < max_row ? tr + 1 : max_row };
    for (int a = 0; a < 2; a++)
        for (int b = 0; b < 2; b++) {
            int64_t cc = col_opts2[a], cr = row_opts2[b];
            kept = emit_candidate(rows, seen, kept, sr, sc, tr, tc,
                                  cr, cc, tc, cc, sr, cr);
        }
    return kept;
}

/* Plans of m endpoint pairs in one call.  pairs is m * 4 ints (sr, sc,
 * tr, tc); pair i writes its rows into slot i * MAX_CANDIDATES of
 * rows_out (CAND_FIELDS int32 per row) and its kept count, or -1, into
 * kept_out[i]. */
void build_plans(const int64_t *pairs, int64_t m,
                 int64_t max_row, int64_t max_col,
                 int32_t *rows_out, int64_t *kept_out)
{
    for (int64_t i = 0; i < m; i++) {
        const int64_t *p = pairs + i * 4;
        kept_out[i] = build_plan(
            p[0], p[1], p[2], p[3], max_row, max_col,
            rows_out + i * MAX_CANDIDATES * CAND_FIELDS);
    }
}

/* ---- the event loop ------------------------------------------------ */

/* Counter slot layout shared with kernel.py. */
enum {
    C_ERR_DETAIL = 0,    /* parked count (deadlock) / limit (max_cycles) */
    C_STALL_EVENTS,
    C_BRAIDED,
    C_MAX_CONC,
    C_CELLS,
    C_DISTINCT,
    C_WAKEUPS,
    C_STALL_CYCLES,
    C_LATENCY,
    C_COUNT
};

/* First free candidate of cands[0..count), or -1 with one watch cell per
 * blocked candidate written to watch. */
static int64_t route(const board_t *b, const int32_t *table, int64_t first,
                     int64_t count, int64_t *watch)
{
    for (int64_t c = 0; c < count; c++) {
        int64_t cell = probe_cand(b, table + (first + c) * CAND_FIELDS);
        if (cell < 0)
            return first + c;
        watch[c] = cell;
    }
    return -1;
}

int64_t simulate_point(
    int64_t n,
    const int64_t *kind,          /* KIND_* */
    const int64_t *dur,
    const int64_t *block,         /* pair, hop: first direct-route row */
    const int64_t *count,         /* pair, hop: candidates after truncation */
    int64_t max_legs,             /* >= 2 when any gate is KIND_HOP */
    const int64_t *star_start,    /* n * max_legs: leg's first row */
    const int64_t *star_count,    /* n * max_legs: 0 marks no leg */
    const int64_t *succ_flat,
    const int64_t *succ_off,      /* n + 1 */
    const int64_t *pred_count,
    const int32_t *table,         /* rows * CAND_FIELDS candidate table */
    int64_t height,               /* lattice rows */
    int64_t width,                /* lattice columns */
    int64_t max_cycles,
    int64_t *gate_start,          /* out, n */
    int64_t *gate_end,            /* out, n */
    int64_t *ready_time,          /* out, n */
    int64_t *counters)            /* out, C_COUNT */
{
    int64_t legs_per_gate = max_legs > 0 ? max_legs : 1;
    int64_t rw = (width + 63) / 64, cw = (height + 63) / 64;
    int64_t err = ERR_OK;
    board_t board = { NULL, NULL, 64 * rw, 64 * cw };

    board.rows = calloc((size_t)(height * rw), 8);
    board.cols = calloc((size_t)(width * cw), 8);
    int64_t *watch = malloc((size_t)n * WATCH_SLOTS * 8);
    int64_t *watch_cnt = malloc((size_t)n * 8);
    int64_t *remaining = malloc((size_t)n * 8);
    int64_t *first_stall = malloc((size_t)n * 8);
    int64_t *issued_rows = malloc((size_t)(n * legs_per_gate) * 8);
    int64_t *issued_cnt = calloc((size_t)n, 8);
    int64_t *parked_list = malloc((size_t)n * 8);
    int64_t *attempt = malloc((size_t)(n + 1) * 8);
    event_t *active = malloc((size_t)(n + 1) * sizeof(event_t));

    if (!board.rows || !board.cols || !watch || !watch_cnt || !remaining
        || !first_stall || !issued_rows || !issued_cnt || !parked_list
        || !attempt || !active) {
        err = ERR_ALLOC;
        goto done;
    }

    for (int64_t i = 0; i < n; i++) {
        remaining[i] = pred_count[i];
        first_stall[i] = -1;
        gate_start[i] = -1;
        gate_end[i] = -1;
        ready_time[i] = 0;
    }
    memset(counters, 0, C_COUNT * 8);

    int64_t attempt_size = 0, active_size = 0;
    for (int64_t i = 0; i < n; i++)
        if (remaining[i] == 0)
            attempt[attempt_size++] = i;   /* ascending: already a heap */

    int64_t now = 0, scan = 0, completed = 0;
    int64_t conc = 0, max_conc = 0, parked = 0;
    int64_t stall_events = 0, distinct = 0, wakeups = 0;
    int64_t braids = 0, cells = 0;

    for (;;) {
        /* -- attempt phase at `now`, in program order ---------------- */
        while (attempt_size) {
            int64_t g = ipop(attempt, &attempt_size);
            int64_t kg = kind[g];
            int64_t *gate_watch = watch + g * WATCH_SLOTS;
            int64_t *rows = issued_rows + g * legs_per_gate;
            int64_t nr = 0, nw = 0;
            if (kg == KIND_STAR || kg == KIND_HOP) {
                /* A star's legs, or a hop braid's source -> hop and hop ->
                 * target legs: every leg is tested against the occupancy
                 * before the braid locks, since its legs may share cells. */
                for (int64_t leg = 0; leg < max_legs && !nw; leg++) {
                    int64_t cnt = star_count[g * max_legs + leg];
                    if (cnt == 0)
                        break;
                    int64_t base = star_start[g * max_legs + leg];
                    int64_t chosen = conc == 0
                        ? base : route(&board, table, base, cnt, gate_watch);
                    if (chosen < 0)
                        nw = cnt;            /* only the failing leg watches */
                    else
                        rows[nr++] = chosen;
                }
                if (nw && kg == KIND_STAR) {
                    watch_cnt[g] = nw;
                    goto park;
                }
            }
            if (kg == KIND_PAIR || (kg == KIND_HOP && nw)) {
                /* The direct route: a pair's only one, and a hop braid's
                 * fallback when its hop cannot be honoured. */
                int64_t chosen = conc == 0
                    ? block[g]
                    : route(&board, table, block[g], count[g], gate_watch + nw);
                if (chosen < 0) {
                    watch_cnt[g] = nw + count[g];
                    goto park;
                }
                rows[0] = chosen;
                nr = 1;
            }
            if (kg != KIND_PLAIN) {
                /* A star's control cell is every leg's source endpoint. */
                issued_cnt[g] = nr;
                for (int64_t i = 0; i < nr; i++)
                    cells += lock_cand(&board, table + rows[i] * CAND_FIELDS);
                conc++;
                if (conc > max_conc)
                    max_conc = conc;
                braids++;
            }
            if (first_stall[g] >= 0)
                stall_events += scan - first_stall[g];
            gate_start[g] = now;
            gate_end[g] = now + dur[g];
            epush(active, &active_size, (event_t){ now + dur[g], g });
            continue;

        park:
            if (first_stall[g] < 0) {
                first_stall[g] = scan;
                distinct++;
            }
            parked_list[parked++] = g;
        }

        /* -- idle check ---------------------------------------------- */
        if (active_size == 0) {
            if (parked) {
                counters[C_ERR_DETAIL] = parked;
                err = ERR_DEADLOCK;
            }
            break;
        }

        /* -- retire every event at the next time -------------------- */
        now = active[0].t;
        scan++;
        int freed_any = 0;
        while (active_size && active[0].t == now) {
            event_t ev = epop(active, &active_size);
            int64_t g = ev.g;
            if (kind[g] != KIND_PLAIN) {
                const int64_t *rows = issued_rows + g * legs_per_gate;
                for (int64_t i = 0; i < issued_cnt[g]; i++)
                    free_cand(&board, table + rows[i] * CAND_FIELDS);
                conc--;
                freed_any = 1;
            }
            completed++;
            for (int64_t si = succ_off[g]; si < succ_off[g + 1]; si++) {
                int64_t s = succ_flat[si];
                remaining[s]--;
                if (ready_time[s] < now)
                    ready_time[s] = now;
                if (remaining[s] == 0)
                    ipush(attempt, &attempt_size, s);
            }
        }
        if (completed >= n)
            break;
        if (now > max_cycles) {
            counters[C_ERR_DETAIL] = max_cycles;
            err = ERR_MAX_CYCLES;
            break;
        }
        if (freed_any) {
            /* wake every parked gate with a watch cell freed this step */
            for (int64_t i = 0; i < parked; ) {
                int64_t g = parked_list[i];
                const int64_t *gate_watch = watch + g * WATCH_SLOTS;
                int freed = 0;
                for (int64_t j = 0; j < watch_cnt[g] && !freed; j++)
                    freed = !get_bit(board.rows, gate_watch[j]);
                if (freed) {
                    parked_list[i] = parked_list[--parked];
                    wakeups++;
                    ipush(attempt, &attempt_size, g);
                } else {
                    i++;
                }
            }
        }
    }

    if (err == ERR_OK) {
        int64_t latency = 0, stall_cycles = 0;
        for (int64_t i = 0; i < n; i++) {
            if (gate_end[i] > latency)
                latency = gate_end[i];
            if (gate_start[i] >= 0) {
                int64_t d = gate_start[i] - ready_time[i];
                if (d > 0)
                    stall_cycles += d;
            }
        }
        counters[C_STALL_EVENTS] = stall_events;
        counters[C_BRAIDED] = braids;
        counters[C_MAX_CONC] = max_conc;
        counters[C_CELLS] = cells;
        counters[C_DISTINCT] = distinct;
        counters[C_WAKEUPS] = wakeups;
        counters[C_STALL_CYCLES] = stall_cycles;
        counters[C_LATENCY] = latency;
    }

done:
    free(board.rows);
    free(board.cols);
    free(watch);
    free(watch_cnt);
    free(remaining);
    free(first_stall);
    free(issued_rows);
    free(issued_cnt);
    free(parked_list);
    free(attempt);
    free(active);
    return err;
}
