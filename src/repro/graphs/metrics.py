"""Mapping-quality metrics: edge length, edge spacing and edge crossings.

Section VI-A of the paper studies three heuristics for predicting braid
congestion from a qubit mapping, and Fig. 6 reports their correlation with
simulated circuit latency:

* **edge (Manhattan) length** — longer braids occupy more channel area and
  are more likely to conflict (r = 0.601),
* **edge spacing** — the average distance between braid midpoints; larger
  spacing means braids are spread out and conflict less (r = -0.625),
* **edge crossings** — two braids whose endpoint-to-endpoint segments cross
  must serialise (r = 0.831, the strongest predictor).

All metrics take an interaction graph together with a *position map*
``{qubit: (row, col)}``; they are agnostic to how the mapping was produced so
every mapper and the correlation experiment can share them.

Two implementations of the quadratic metrics exist side by side:

* the **fast engine** (the default): crossing counting hashes every edge
  segment into the grid buckets its bounding box overlaps, so only segment
  pairs whose bounding boxes share a bucket are orientation-tested —
  near-linear on the compact placements the mappers produce; spacing keeps
  the full pairwise sum (every midpoint pair contributes to the exact
  mean, so pruning is impossible) but evaluates it in vectorized blocks;
* the ``*_reference`` functions keep the original O(m^2) pairwise loops as
  a brute-force oracle for parity tests and benchmarks.

:class:`MappingCostTracker` maintains all three metrics *incrementally*
under single-vertex moves (only edges incident to the moved vertices are
re-tested against their bucket neighbourhoods), which is what lets the
force-directed annealer of Section VI-B.1 accept or reject every move
against the exact combined cost at any graph size.  The tracker has
two engines — ``compiled`` (the runtime-built C kernel of
:mod:`repro.kernels.metrics`, used whenever it loads) and ``scalar``
(pure Python, the retained oracle, used under ``REPRO_NO_KERNEL=1`` or
without a C compiler) — that are **bit-identical** on every value they
produce: distances use only correctly-rounded IEEE operations
(``sqrt(dr*dr + dc*dc)``, never ``hypot``), every row reduction is a
binary tree fold over the row zero-padded to a power-of-two length, and
the C build disables FMA contraction.  The differential fuzz harness
(tests/test_metrics_fuzz.py) pins the parity.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as _np

from ..kernels import metrics as _metrics_kernel
from .adjacency import Graph

Position = Tuple[float, float]
PositionMap = Mapping[int, Position]


def _placed_edges(
    graph: Graph, positions: PositionMap
) -> List[Tuple[int, int, Position, Position]]:
    """Every non-loop edge with its endpoint vertices and placed coordinates."""
    edges: List[Tuple[int, int, Position, Position]] = []
    for a, b in graph.edges():
        if a == b:
            continue  # a self-loop has a degenerate (point) segment
        if a not in positions or b not in positions:
            raise KeyError(f"edge ({a}, {b}) has an unplaced endpoint")
        edges.append((a, b, positions[a], positions[b]))
    return edges


def manhattan_distance(p: Position, q: Position) -> float:
    """Manhattan (L1) distance between two grid positions."""
    return abs(p[0] - q[0]) + abs(p[1] - q[1])


def euclidean_distance(p: Position, q: Position) -> float:
    """Euclidean (L2) distance between two grid positions."""
    return math.hypot(p[0] - q[0], p[1] - q[1])


def total_edge_length(
    graph: Graph, positions: PositionMap, weighted: bool = True
) -> float:
    """Sum of Manhattan edge lengths (optionally weighted by interaction count)."""
    total = 0.0
    for a, b, data in graph.edges(data=True):
        weight = data.get("weight", 1) if weighted else 1
        total += weight * manhattan_distance(positions[a], positions[b])
    return total


def _non_loop_edge_count(graph: Graph) -> int:
    """Number of edges between distinct vertices (self-loops excluded).

    Every Fig. 6 metric ignores self-loops — a qubit does not braid with
    itself — so they share this denominator and agree with
    :class:`MappingCostTracker`, which skips loops when indexing edges.
    """
    return sum(1 for a, b in graph.edges() if a != b)


def average_edge_length(graph: Graph, positions: PositionMap) -> float:
    """Average Manhattan edge length of the mapping (Fig. 6, middle metric)."""
    edges = _non_loop_edge_count(graph)
    if edges == 0:
        return 0.0
    # Self-loops contribute zero length, so the unweighted total needs no
    # loop filtering — only the denominator does.
    return total_edge_length(graph, positions, weighted=False) / edges


def edge_midpoint(p: Position, q: Position) -> Position:
    """Midpoint of a placed edge, used by the spacing metric and repulsion force."""
    return ((p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0)


def _edge_midpoints(graph: Graph, positions: PositionMap) -> List[Position]:
    """Midpoints of every non-loop edge (self-loops carry no braid)."""
    return [
        edge_midpoint(positions[a], positions[b])
        for a, b in graph.edges()
        if a != b
    ]


def _pairwise_distance_sum(midpoints: Sequence[Position]) -> float:
    """Exact sum of Euclidean distances over all unordered midpoint pairs.

    From 64 midpoints on, numpy block evaluation (identical result up to
    floating-point summation order); below that, the pairwise loop.
    """
    n = len(midpoints)
    if n < 2:
        return 0.0
    if n >= 64:
        arr = _np.asarray(midpoints, dtype=float)
        total = 0.0
        chunk = 256
        for start in range(0, n - 1, chunk):
            block = arr[start : start + chunk]
            b = len(block)
            # Rectangle of this block against every row from `start` on; the
            # leading b columns are the block-vs-block square (keep its
            # strict upper triangle), the rest are full cross pairs.
            d_row = block[:, 0:1] - arr[start:, 0][None, :]
            d_col = block[:, 1:2] - arr[start:, 1][None, :]
            distances = _np.hypot(d_row, d_col)
            upper = _np.triu(distances[:, :b], k=1).sum()
            total += float(upper + distances[:, b:].sum())
        return total
    total = 0.0
    for p, q in itertools.combinations(midpoints, 2):
        total += math.hypot(p[0] - q[0], p[1] - q[1])
    return total


def average_edge_spacing(graph: Graph, positions: PositionMap) -> float:
    """Average pairwise distance between edge midpoints (Fig. 6, right metric).

    Larger values mean braids are more spread out over the mesh and are less
    likely to contend for the same channels.  The value is exact; see
    :func:`average_edge_spacing_reference` for the plain pairwise loop.
    """
    midpoints = _edge_midpoints(graph, positions)
    if len(midpoints) < 2:
        return 0.0
    pairs = len(midpoints) * (len(midpoints) - 1) // 2
    return _pairwise_distance_sum(midpoints) / pairs


def average_edge_spacing_reference(graph: Graph, positions: PositionMap) -> float:
    """Brute-force O(m^2) oracle for :func:`average_edge_spacing`."""
    midpoints = _edge_midpoints(graph, positions)
    if len(midpoints) < 2:
        return 0.0
    total = 0.0
    count = 0
    for p, q in itertools.combinations(midpoints, 2):
        total += euclidean_distance(p, q)
        count += 1
    return total / count


def _orientation(p: Position, q: Position, r: Position) -> int:
    """Orientation of the ordered triple (p, q, r): 0 collinear, 1 cw, 2 ccw."""
    value = (q[1] - p[1]) * (r[0] - q[0]) - (q[0] - p[0]) * (r[1] - q[1])
    if abs(value) < 1e-12:
        return 0
    return 1 if value > 0 else 2


def _on_segment(p: Position, q: Position, r: Position) -> bool:
    """Whether collinear point ``q`` lies on segment ``pr``."""
    return (
        min(p[0], r[0]) - 1e-12 <= q[0] <= max(p[0], r[0]) + 1e-12
        and min(p[1], r[1]) - 1e-12 <= q[1] <= max(p[1], r[1]) + 1e-12
    )


def _segments_cross(
    a1: Position, a2: Position, b1: Position, b2: Position
) -> bool:
    """Purely geometric segment-intersection test (no endpoint exclusion)."""
    o1 = _orientation(a1, a2, b1)
    o2 = _orientation(a1, a2, b2)
    o3 = _orientation(b1, b2, a1)
    o4 = _orientation(b1, b2, a2)

    # A proper crossing needs every orientation strict.  An endpoint that is
    # collinear within the tolerance goes to the on-segment checks below:
    # orientations like (2, 0, 0, 2) also come from segments whose boxes
    # lie apart.
    if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
        return True
    if o1 == 0 and _on_segment(a1, b1, a2):
        return True
    if o2 == 0 and _on_segment(a1, b2, a2):
        return True
    if o3 == 0 and _on_segment(b1, a1, b2):
        return True
    if o4 == 0 and _on_segment(b1, a2, b2):
        return True
    return False


def segments_intersect(
    a1: Position, a2: Position, b1: Position, b2: Position
) -> bool:
    """Whether segments ``a1-a2`` and ``b1-b2`` intersect (shared coordinates excluded).

    Edges that merely meet at a shared qubit are not counted as crossings —
    they serialise through the dependency DAG rather than through routing
    conflicts.  This helper can only see coordinates, so it excludes shared
    *coordinate* endpoints; :func:`count_edge_crossings` instead excludes by
    graph endpoint identity, which is the correct rule when two distinct
    vertices coincide in position.
    """
    endpoints_a = {a1, a2}
    endpoints_b = {b1, b2}
    if endpoints_a & endpoints_b:
        return False
    return _segments_cross(a1, a2, b1, b2)


# ----------------------------------------------------------------------
# Bucketed segment index
# ----------------------------------------------------------------------
class _SegmentGrid:
    """Uniform spatial hash of segments, bucketed by bounding-box coverage.

    Each segment is registered in every grid bucket its axis-aligned
    bounding box overlaps, widened by the crossing predicates' 1e-12
    tolerance.  Two segments can only intersect if their widened boxes
    overlap (the predicates count pairs that touch within the tolerance),
    and overlapping boxes always share at least one bucket, so the
    per-bucket candidate lists are a sound pruning of the O(m^2) pair space.
    """

    def __init__(self, bucket_size: float) -> None:
        if bucket_size <= 0:
            raise ValueError(f"bucket_size must be positive, got {bucket_size}")
        self.bucket_size = float(bucket_size)
        self._buckets: Dict[Tuple[int, int], Set[int]] = defaultdict(set)

    def cells(self, p: Position, q: Position) -> List[Tuple[int, int]]:
        """The bucket keys overlapped by the widened bounding box of ``p-q``."""
        size = self.bucket_size
        row_lo = math.floor((min(p[0], q[0]) - 1e-12) / size)
        row_hi = math.floor((max(p[0], q[0]) + 1e-12) / size)
        col_lo = math.floor((min(p[1], q[1]) - 1e-12) / size)
        col_hi = math.floor((max(p[1], q[1]) + 1e-12) / size)
        return [
            (row, col)
            for row in range(row_lo, row_hi + 1)
            for col in range(col_lo, col_hi + 1)
        ]

    def insert(self, index: int, cells: Iterable[Tuple[int, int]]) -> None:
        for cell in cells:
            self._buckets[cell].add(index)

    def remove(self, index: int, cells: Iterable[Tuple[int, int]]) -> None:
        for cell in cells:
            bucket = self._buckets.get(cell)
            if bucket is not None:
                bucket.discard(index)
                if not bucket:
                    del self._buckets[cell]

    def candidates(self, cells: Iterable[Tuple[int, int]]) -> Set[int]:
        """Indices of every registered segment sharing a bucket with ``cells``."""
        found: Set[int] = set()
        buckets = self._buckets
        for cell in cells:
            bucket = buckets.get(cell)
            if bucket:
                found.update(bucket)
        return found


def _auto_bucket_size(
    ends: Sequence[Tuple[int, int, Position, Position]]
) -> float:
    """Bucket size matched to the average segment extent of the layout.

    A bucket around the mean bounding-box span keeps both failure modes in
    check: much smaller buckets make long segments pay for many insertions,
    much larger ones stop pruning pairs at all.
    """
    if not ends:
        return 1.0
    total_span = 0.0
    for _, _, p, q in ends:
        total_span += max(abs(p[0] - q[0]), abs(p[1] - q[1]))
    return max(2.0, total_span / (4.0 * len(ends)))


def count_edge_crossings(
    graph: Graph, positions: PositionMap, bucket_size: Optional[float] = None
) -> int:
    """Count pairs of placed edges whose straight segments cross (Fig. 6, left).

    This is the geometric crossing count over the geodesic (straight-line)
    paths between endpoints, matching the paper's definition in VI-A.3.
    Pairs of edges sharing a graph endpoint are excluded *by vertex
    identity* — two edges between four distinct qubits count even when some
    of their endpoints coincide in position.  Candidate pairs are pruned
    through a spatial bucket grid (see :class:`_SegmentGrid`); the result is
    identical to :func:`count_edge_crossings_reference`.
    """
    edges = _placed_edges(graph, positions)
    if len(edges) < 2:
        return 0
    if bucket_size is None:
        bucket_size = _auto_bucket_size(edges)
    grid = _SegmentGrid(bucket_size)
    crossings = 0
    for index, (a, b, pa, pb) in enumerate(edges):
        cells = grid.cells(pa, pb)
        row_lo, row_hi = min(pa[0], pb[0]), max(pa[0], pb[0])
        col_lo, col_hi = min(pa[1], pb[1]), max(pa[1], pb[1])
        for other in grid.candidates(cells):
            c, d, pc, pd = edges[other]
            if a == c or a == d or b == c or b == d:
                continue
            # Cheap bounding-box rejection before the orientation tests:
            # sharing a bucket does not imply overlapping boxes.  The margin
            # matches the collinearity tolerance of ``_on_segment``.
            if (
                max(pc[0], pd[0]) < row_lo - 1e-12
                or min(pc[0], pd[0]) > row_hi + 1e-12
                or max(pc[1], pd[1]) < col_lo - 1e-12
                or min(pc[1], pd[1]) > col_hi + 1e-12
            ):
                continue
            if _segments_cross(pa, pb, pc, pd):
                crossings += 1
        # Insert after querying: each unordered pair is tested exactly once,
        # when the later of the two edges is the query.
        grid.insert(index, cells)
    return crossings


def count_edge_crossings_reference(graph: Graph, positions: PositionMap) -> int:
    """Brute-force O(m^2) oracle for :func:`count_edge_crossings`.

    Same semantics (vertex-identity endpoint exclusion), plain pairwise loop.
    """
    edges = _placed_edges(graph, positions)
    crossings = 0
    for (a, b, pa, pb), (c, d, pc, pd) in itertools.combinations(edges, 2):
        if a == c or a == d or b == c or b == d:
            continue
        if _segments_cross(pa, pb, pc, pd):
            crossings += 1
    return crossings


def mapping_metrics(graph: Graph, positions: PositionMap) -> Dict[str, float]:
    """All three Fig. 6 metrics for a mapping, as a dictionary.

    Keys: ``edge_crossings``, ``average_edge_length``, ``average_edge_spacing``.
    """
    return {
        "edge_crossings": float(count_edge_crossings(graph, positions)),
        "average_edge_length": average_edge_length(graph, positions),
        "average_edge_spacing": average_edge_spacing(graph, positions),
    }


def combine_metric_cost(
    crossings: float,
    avg_length: float,
    avg_spacing: float,
    length_weight: float = 1.0,
    spacing_weight: float = 1.0,
    crossing_weight: float = 4.0,
) -> float:
    """The scalar Fig. 6 cost formula shared by :func:`mapping_cost` and the tracker."""
    return (
        crossing_weight * crossings
        + length_weight * avg_length
        + spacing_weight * (1.0 / (1.0 + avg_spacing))
    )


def mapping_cost(
    graph: Graph,
    positions: PositionMap,
    length_weight: float = 1.0,
    spacing_weight: float = 1.0,
    crossing_weight: float = 4.0,
) -> float:
    """Scalar cost combining the three metrics (lower is better).

    The force-directed annealer of Section VI-B.1 accepts or rejects vertex
    moves based on "a cost metric ... a function of the combination of
    average edge length, average edge spacing, and number of edge crossings".
    Crossings get the largest default weight because they correlate most
    strongly with latency (r = 0.831).
    """
    metrics = mapping_metrics(graph, positions)
    return combine_metric_cost(
        metrics["edge_crossings"],
        metrics["average_edge_length"],
        metrics["average_edge_spacing"],
        length_weight=length_weight,
        spacing_weight=spacing_weight,
        crossing_weight=crossing_weight,
    )


# ----------------------------------------------------------------------
# Incremental cost tracking
# ----------------------------------------------------------------------
#
# The tracker below is split into a shared Python core (positions, edge
# bookkeeping, the scalar metric sums, move snapshots) and two
# interchangeable *engines* that own the geometry state — segment
# endpoints, midpoints, the bucket grid and the per-edge spacing row-sum
# cache R[i] = treefold_j dist(mid_i, mid_j):
#
# ============  =========================  ==============================
# engine        geometry state             crossing / spacing evaluation
# ============  =========================  ==============================
# ``compiled``  flat numpy arrays          C kernel (repro.kernels.metrics)
# ``scalar``    Python lists               pure Python (retained oracle)
# ============  =========================  ==============================
#
# The engines are **bit-identical** on every float they produce.  Three
# rules make that possible:
#
# * midpoint distances are ``sqrt(dr*dr + dc*dc)`` — one multiply per
#   axis, one add, one correctly-rounded sqrt; never ``hypot`` (libm
#   hypots differ across platforms and numpy);
# * every reduction over a distance row is a binary **tree fold** of the
#   row zero-padded to a power-of-two length — the same tree shape in C
#   and Python (pairwise list halving);
# * the tiny k-term sums of a move delta (old-row totals, intra-changed
#   midpoint terms, the length updates, the final cost assembly) run in
#   shared Python code, so each engine contributes only the big
#   tree-folded terms it computed under the rules above.
#
# The C kernel is compiled with ``-ffp-contract=off`` so no FMA ever
# fuses the multiply-adds the Python engine evaluates separately.

_GRID_MARGIN = 4  # dense-grid slack (cells) around the initial extent
_CELL_CAPACITY = 8  # initial dense-grid slots per cell (doubled on overflow)


def _cell_position(vertex, pos) -> Position:
    """``pos`` as a float pair; ``ValueError`` unless it is a grid cell."""
    row, col = float(pos[0]), float(pos[1])
    if not (row.is_integer() and col.is_integer()):
        raise ValueError(
            f"vertex {vertex!r} is placed at {tuple(pos)!r}: tracked "
            "coordinates must be finite integers (grid cells)"
        )
    return row, col


def tracker_engines() -> List[str]:
    """Tracker engine names usable in this environment.

    Always includes ``scalar``; ``compiled`` needs the runtime-built
    metrics kernel.
    """
    engines = ["scalar"]
    if _metrics_kernel.available():
        engines.append("compiled")
    return engines


def _pow2_pad(count: int) -> int:
    """Smallest power of two >= count (1 for an empty row)."""
    pad = 1
    while pad < count:
        pad <<= 1
    return pad


def _dist(ar: float, ac: float, br: float, bc: float) -> float:
    """Canonical midpoint distance: sqrt(dr*dr + dc*dc), never hypot."""
    dr = ar - br
    dc = ac - bc
    return math.sqrt(dr * dr + dc * dc)


def _treefold_list(values: Sequence[float], pad: int) -> float:
    """Binary tree fold of ``values`` zero-padded to ``pad`` entries."""
    buf = list(values)
    buf.extend([0.0] * (pad - len(buf)))
    while len(buf) > 1:
        buf = [buf[2 * i] + buf[2 * i + 1] for i in range(len(buf) // 2)]
    return buf[0]


def _intra_crossings(
    changed: Sequence[int],
    segs: Sequence[Tuple[Position, Position]],
    end_u: Sequence[int],
    end_v: Sequence[int],
) -> int:
    """Changed-vs-changed crossing block on explicit segments.

    ``segs`` is aligned with ``changed`` (old or proposed geometry); the
    block is tiny (k^2/2 pairs) so it runs without bucket pruning, in
    every engine, with the exact :func:`_segments_cross` arithmetic.
    """
    count = 0
    for t in range(len(changed)):
        i = changed[t]
        a, b = end_u[i], end_v[i]
        p, q = segs[t]
        for u in range(t + 1, len(changed)):
            j = changed[u]
            if a == end_u[j] or a == end_v[j] or b == end_u[j] or b == end_v[j]:
                continue
            pc, pd = segs[u]
            if _segments_cross(p, q, pc, pd):
                count += 1
    return count


# --- scalar engine ---------------------------------------------------------
class _ScalarTrackerEngine:
    """Pure-Python engine: list geometry, dict bucket grid (the oracle)."""

    name = "scalar"

    def __init__(self, edges, ends, mids, bucket_size):
        self._eu = [a for a, _, _ in edges]
        self._ev = [b for _, b, _ in edges]
        self._seg: List[Tuple[Position, Position]] = list(ends)
        self._mid: List[Position] = list(mids)
        m = len(ends)
        self._m = m
        self._pad = _pow2_pad(m)
        self._grid = _SegmentGrid(bucket_size)
        self._cells: List[List[Tuple[int, int]]] = []
        self.crossings = 0
        for index, (p, q) in enumerate(self._seg):
            cells = self._grid.cells(p, q)
            # Insert after querying: each unordered pair counted once.
            self.crossings += self._count_against(
                p, q, self._eu[index], self._ev[index],
                self._grid.candidates(cells), frozenset(),
            )
            self._grid.insert(index, cells)
            self._cells.append(cells)
        self._R: List[float] = []
        for i in range(m):
            row, col = self._mid[i]
            dists = [_dist(row, col, mr, mc) for mr, mc in self._mid]
            self._R.append(_treefold_list(dists, self._pad))
        self.spacing_sum = _treefold_list(self._R, self._pad) * 0.5

    def _count_against(self, p, q, a, b, candidates, skip):
        """Crossings of segment ``p-q`` (vertices a,b) vs candidate edges."""
        row_lo, row_hi = min(p[0], q[0]) - 1e-12, max(p[0], q[0]) + 1e-12
        col_lo, col_hi = min(p[1], q[1]) - 1e-12, max(p[1], q[1]) + 1e-12
        eu, ev, seg = self._eu, self._ev, self._seg
        count = 0
        for other in candidates:
            if other in skip:
                continue
            c, d = eu[other], ev[other]
            if a == c or a == d or b == c or b == d:
                continue
            pc, pd = seg[other]
            if (
                max(pc[0], pd[0]) < row_lo
                or min(pc[0], pd[0]) > row_hi
                or max(pc[1], pd[1]) < col_lo
                or min(pc[1], pd[1]) > col_hi
            ):
                continue
            if _segments_cross(p, q, pc, pd):
                count += 1
        return count

    def row_sum(self, index: int) -> float:
        return self._R[index]

    def eval(self, changed, new_ends, new_mids):
        """(newrows, old_crossings, new_crossings) for a proposed move.

        Pure: evaluates against the committed geometry.  The grid still
        holds the changed edges, so candidate sets are filtered through
        ``changed`` and the changed-vs-changed blocks run separately.
        """
        changed_set = set(changed)
        old_cross = 0
        new_cross = 0
        grid = self._grid
        for t, i in enumerate(changed):
            p, q = self._seg[i]
            old_cross += self._count_against(
                p, q, self._eu[i], self._ev[i],
                grid.candidates(self._cells[i]), changed_set,
            )
            np_, nq = new_ends[t]
            new_cross += self._count_against(
                np_, nq, self._eu[i], self._ev[i],
                grid.candidates(grid.cells(np_, nq)), changed_set,
            )
        old_segs = [self._seg[i] for i in changed]
        old_cross += _intra_crossings(changed, old_segs, self._eu, self._ev)
        new_cross += _intra_crossings(changed, new_ends, self._eu, self._ev)
        newrows = []
        for t in range(len(changed)):
            row, col = new_mids[t]
            dists = [_dist(row, col, mr, mc) for mr, mc in self._mid]
            for i in changed:
                dists[i] = 0.0
            newrows.append(_treefold_list(dists, self._pad))
        return newrows, old_cross, new_cross

    def flush(self, changed, new_ends, new_mids):
        """Fold a committed move into the geometry, grid and R cache."""
        mid = self._mid
        R = self._R
        m = self._m
        # Phase A: elementwise row-sum adjustment against the old midpoints,
        # in ascending changed order (the canonical order all engines use).
        for t, i in enumerate(changed):
            new_row, new_col = new_mids[t]
            old_row, old_col = mid[i]
            for j in range(m):
                mr, mc = mid[j]
                R[j] += _dist(new_row, new_col, mr, mc) - _dist(
                    old_row, old_col, mr, mc
                )
        # Phase B: write the new geometry.
        for t, i in enumerate(changed):
            self._seg[i] = new_ends[t]
            mid[i] = new_mids[t]
        # Phase C: fresh tree-folded rows for the changed edges themselves.
        for i in changed:
            row, col = mid[i]
            dists = [_dist(row, col, mr, mc) for mr, mc in mid]
            R[i] = _treefold_list(dists, self._pad)
        for t, i in enumerate(changed):
            self._grid.remove(i, self._cells[i])
            p, q = self._seg[i]
            cells = self._grid.cells(p, q)
            self._grid.insert(i, cells)
            self._cells[i] = cells


# --- compiled engine -------------------------------------------------------
class _CompiledTrackerEngine:
    """C-kernel engine: flat numpy state driven through raw ctypes calls.

    The dense cell grid covers the initial layout extent plus a small
    margin, and holds each segment only in the cells its row-band walk
    touches; segments drifting outside are *clamped* to the border
    cells.  Both are sound pruning on the tracker's integer coordinates
    — the exact bbox + orientation tests behind them keep the counts
    identical to the dict grid.  Buffer addresses are cached once per
    (re)allocation so the per-proposal path costs one ctypes call, not
    an argument-marshalling pass.
    """

    name = "compiled"

    def __init__(self, edges, ends, mids, bucket_size, kern):
        self._kern = kern
        self._bucket = float(bucket_size)
        m = len(ends)
        self._m = m
        pad = _pow2_pad(m)
        # The kernel only compares endpoint vertices, so any hashable ids
        # work: it sees them as dense ints numbered here.
        number: Dict[object, int] = {}
        self._eu_arr = _np.asarray(
            [number.setdefault(a, len(number)) for a, _, _ in edges], dtype=_np.int64
        )
        self._ev_arr = _np.asarray(
            [number.setdefault(b, len(number)) for _, b, _ in edges], dtype=_np.int64
        )
        self._seg = _np.ascontiguousarray(
            _np.asarray(
                [(p[0], p[1], q[0], q[1]) for p, q in ends], dtype=float
            ).reshape(m, 4)
        )
        self._mid = _np.ascontiguousarray(
            _np.asarray(mids, dtype=float).reshape(m, 2)
        )
        self._R = _np.zeros(m, dtype=float)
        self._scratch = _np.zeros(max(pad, 4 * m, 1), dtype=float)
        self._stamp = _np.zeros(max(m, 1), dtype=_np.int64)
        self._gen = _np.zeros(1, dtype=_np.int64)
        # Per-edge crossing-count cache (kept exact by mc_commit) and the
        # changed-edge flag array the kernel scans use for O(1) skips.
        self._crossC = _np.zeros(max(m, 1), dtype=_np.int64)
        self._cflag = _np.zeros(max(m, 1), dtype=_np.int64)
        if m:
            bucket = self._bucket
            row_cells = _np.floor(self._seg[:, (0, 2)] / bucket).astype(_np.int64)
            col_cells = _np.floor(self._seg[:, (1, 3)] / bucket).astype(_np.int64)
            origin_row = int(row_cells.min()) - _GRID_MARGIN
            origin_col = int(col_cells.min()) - _GRID_MARGIN
            n_rows = int(row_cells.max()) + _GRID_MARGIN - origin_row + 1
            n_cols = int(col_cells.max()) + _GRID_MARGIN - origin_col + 1
        else:
            origin_row = origin_col = 0
            n_rows = n_cols = 1
        self._n_cells = n_rows * n_cols
        cap = _CELL_CAPACITY
        self._ip = _np.array(
            [m, pad, origin_row, origin_col, n_rows, n_cols, cap],
            dtype=_np.int64,
        )
        self._cell_count = _np.zeros(self._n_cells, dtype=_np.int64)
        self._cell_items = _np.zeros(self._n_cells * cap, dtype=_np.int64)
        # Per-move staging buffers (k <= m always).
        self._changed_buf = _np.zeros(max(m, 1), dtype=_np.int64)
        self._newseg_buf = _np.zeros((max(m, 1), 4), dtype=float)
        self._newmid_buf = _np.zeros((max(m, 1), 2), dtype=float)
        self._newrow_buf = _np.zeros(max(m, 1), dtype=float)
        self._cross_buf = _np.zeros(2, dtype=_np.int64)
        self._cache_pointers()
        while self._kern.grid_build(
            self._ip_p, self._seg_p, self._bucket, self._cc_p, self._ci_p
        ) != 0:
            self._grow_cell_items()
        self.spacing_sum = float(
            self._kern.spacing_init(
                self._ip_p, self._mid_p, self._R_p, self._scratch_p
            )
        )
        self.crossings = int(
            self._kern.count_crossings(
                self._ip_p, self._seg_p, self._bucket, self._eu_p,
                self._ev_p, self._cc_p, self._ci_p, self._stamp_p,
                self._gen_p, self._crossC_p,
            )
        )

    def _cache_pointers(self):
        self._ip_p = self._ip.ctypes.data
        self._seg_p = self._seg.ctypes.data
        self._mid_p = self._mid.ctypes.data
        self._eu_p = self._eu_arr.ctypes.data
        self._ev_p = self._ev_arr.ctypes.data
        self._R_p = self._R.ctypes.data
        self._scratch_p = self._scratch.ctypes.data
        self._stamp_p = self._stamp.ctypes.data
        self._gen_p = self._gen.ctypes.data
        self._cc_p = self._cell_count.ctypes.data
        self._ci_p = self._cell_items.ctypes.data
        self._crossC_p = self._crossC.ctypes.data
        self._cflag_p = self._cflag.ctypes.data
        self._changed_p = self._changed_buf.ctypes.data
        self._newseg_p = self._newseg_buf.ctypes.data
        self._newmid_p = self._newmid_buf.ctypes.data
        self._newrow_p = self._newrow_buf.ctypes.data
        self._cross_p = self._cross_buf.ctypes.data

    def _grow_cell_items(self):
        cap = int(self._ip[6]) * 2
        self._ip[6] = cap
        self._cell_items = _np.zeros(self._n_cells * cap, dtype=_np.int64)
        self._ci_p = self._cell_items.ctypes.data

    def _rebuild_grid(self):
        while True:
            self._grow_cell_items()
            if self._kern.grid_build(
                self._ip_p, self._seg_p, self._bucket, self._cc_p, self._ci_p
            ) == 0:
                return

    def _stage(self, changed, new_ends, new_mids):
        k = len(changed)
        self._changed_buf[:k] = changed
        self._newseg_buf[:k] = [
            (p[0], p[1], q[0], q[1]) for p, q in new_ends
        ]
        self._newmid_buf[:k] = new_mids
        return k

    def row_sum(self, index: int) -> float:
        return float(self._R[index])

    def eval(self, changed, new_ends, new_mids):
        k = self._stage(changed, new_ends, new_mids)
        self._kern.eval(
            self._ip_p, self._bucket, k,
            self._changed_p, self._newseg_p, self._newmid_p,
            self._seg_p, self._mid_p, self._eu_p, self._ev_p,
            self._crossC_p, self._cflag_p,
            self._cc_p, self._ci_p, self._stamp_p, self._gen_p,
            self._scratch_p, self._newrow_p, self._cross_p,
        )
        return (
            self._newrow_buf[:k].tolist(),
            int(self._cross_buf[0]),
            int(self._cross_buf[1]),
        )

    def flush(self, changed, new_ends, new_mids):
        k = self._stage(changed, new_ends, new_mids)
        status = self._kern.commit(
            self._ip_p, self._bucket, k,
            self._changed_p, self._newseg_p, self._newmid_p,
            self._seg_p, self._mid_p, self._R_p,
            self._cc_p, self._ci_p, self._scratch_p,
            self._eu_p, self._ev_p, self._stamp_p, self._gen_p,
            self._crossC_p, self._cflag_p,
        )
        if status != 0:
            # A cell overflowed its capacity: seg/mid/R are already
            # updated, so rebuilding the whole grid from seg is enough.
            self._rebuild_grid()


#: The error both sweep paths raise when a weighted force sum overflows.
NAN_FORCE_ERROR = "force-directed refinement produced a NaN force"


class SweepForces(NamedTuple):
    """The force field an annealing sweep steers by, as plain arrays.

    Indices are sweep mover indices: entry ``i`` belongs to ``movers[i]``
    of :meth:`MappingCostTracker.kernel_sweep`.  ``nbr_offsets`` (n + 1
    entries) and ``nbr_index`` list every mover's neighbours in CSR form,
    ``edge_u``/``edge_v`` are the edges the braid repulsion acts on and
    ``poles`` the +1/-1 dipole poles.  ``weights`` holds the attraction,
    repulsion and dipole weights and ``enabled`` the matching switches.
    """

    nbr_offsets: Sequence[int]
    nbr_index: Sequence[int]
    edge_u: Sequence[int]
    edge_v: Sequence[int]
    poles: Sequence[int]
    weights: Tuple[float, float, float]
    enabled: Tuple[bool, bool, bool]
    radius: int
    max_step: int


def _int64_buffer(values):
    """``values`` as a non-empty contiguous int64 array (safe to point at)."""
    array = _np.ascontiguousarray(values, dtype=_np.int64)
    return array if array.size else _np.zeros(1, dtype=_np.int64)


class KernelSweep:
    """Whole annealing sweeps run inside the metrics kernel (``mc_sweep``).

    Built by :meth:`MappingCostTracker.kernel_sweep` on the compiled
    engine, once per refinement, with the annealer's force field.  The
    annealer keeps the policy (weights and switches, proposal order,
    temperature schedule) and hands over one sweep per :meth:`run`; the
    kernel computes the forces and grid steps from the current cells,
    then runs the proposal loop (target cell, bounds check, occupant
    swap, evaluate, Boltzmann test, commit) against the engine's arrays.
    Vertices are indexed ``movers`` first, then every other tracked
    vertex (occupants that never move on their own), so proposal index
    ``i`` always means ``movers[i]``.
    """

    def __init__(
        self,
        tracker: "MappingCostTracker",
        movers: Sequence,
        height: int,
        width: int,
        forces: SweepForces,
    ) -> None:
        k = _metrics_kernel
        # The kernel reads the field without bounds checks.
        nodes, field_edges = len(movers), len(forces.edge_u)
        offsets = _np.asarray(forces.nbr_offsets, dtype=_np.int64)
        indices = _np.concatenate(
            [
                _np.asarray(a, dtype=_np.int64)
                for a in (forces.nbr_index, forces.edge_u, forces.edge_v)
            ]
        )
        if (
            len(forces.poles) != nodes
            or len(forces.edge_v) != field_edges
            or offsets.shape != (nodes + 1,)
            or offsets[0] != 0
            or offsets[-1] != len(forces.nbr_index)
            or (_np.diff(offsets) < 0).any()
            or ((indices < 0) | (indices >= nodes)).any()
        ):
            raise ValueError("the force field must index exactly the movers")
        self._tracker = tracker
        self._engine = tracker._engine
        mover_set = set(movers)
        ids = list(movers) + [v for v in tracker._positions if v not in mover_set]
        self._ids = ids
        index = {vertex: i for i, vertex in enumerate(ids)}
        edges = tracker._edges
        self._weight = _np.asarray([w for _, _, w in edges] or [0.0], dtype=float)
        self._ea = _np.asarray([index[a] for a, _, _ in edges] or [0], dtype=_np.int64)
        self._eb = _np.asarray([index[b] for _, b, _ in edges] or [0], dtype=_np.int64)
        # Ascending incident-edge lists (the tracker builds them in edge
        # order), flattened with prefix offsets.
        offsets = [0]
        incident: List[int] = []
        for vertex in ids:
            incident.extend(tracker._incident.get(vertex, ()))
            offsets.append(len(incident))
        self._inc_off = _np.asarray(offsets, dtype=_np.int64)
        self._inc_edge = _np.asarray(incident or [0], dtype=_np.int64)
        n = max(len(movers), 1)
        self._width = width
        self._pos = _np.zeros((max(len(ids), 1), 2), dtype=_np.int64)
        self._occ = _np.full(height * width, -1, dtype=_np.int64)
        self._order = _np.zeros(n, dtype=_np.int64)
        self._step = _np.zeros((n, 2), dtype=_np.int64)
        self._log = _np.zeros((n, 3), dtype=_np.int64)
        self._mt = _np.zeros(624, dtype=_np.uint32)
        self._sp = _np.zeros(k.SP_SLOTS, dtype=_np.int64)
        self._sp[k.SP_HEIGHT] = height
        self._sp[k.SP_WIDTH] = width
        self._dp = _np.zeros(k.DP_SLOTS, dtype=float)
        self._dp[k.DP_LENGTH_W] = tracker.length_weight
        self._dp[k.DP_SPACING_W] = tracker.spacing_weight
        self._dp[k.DP_CROSSING_W] = tracker.crossing_weight
        # The force pass: settings, field arrays and scratch sized for the
        # layout of mc_forces (buckets of at least one cell on the grid).
        self._fp = _np.zeros(k.FP_SLOTS, dtype=_np.int64)
        self._fp[k.FP_NODES] = nodes
        self._fp[k.FP_EDGES] = field_edges
        self._fp[k.FP_USE] = sum(
            bit
            for bit, on in zip(
                (k.FORCE_ATTRACTION, k.FORCE_REPULSION, k.FORCE_DIPOLE),
                forces.enabled,
            )
            if on
        )
        self._fp[k.FP_RADIUS] = forces.radius
        self._fp[k.FP_MAX_STEP] = forces.max_step
        self._fw = _np.asarray(forces.weights, dtype=float)
        self._field = [
            _int64_buffer(values)
            for values in (
                forces.nbr_offsets, forces.nbr_index,
                forces.edge_u, forces.edge_v, forces.poles,
            )
        ]
        self._fbuf = _np.zeros(5 * nodes + 4 * field_edges + 1, dtype=float)
        self._ibuf = _np.zeros(
            3 * max(nodes, field_edges) + (height + 2) * (width + 2) + 1,
            dtype=_np.int64,
        )
        self._force_pointers = [
            array.ctypes.data
            for array in [self._fp, self._fw] + self._field
        ]
        self._pointers = [
            array.ctypes.data
            for array in (
                self._weight, self._ea, self._eb, self._inc_off,
                self._inc_edge, self._pos, self._occ, self._order,
                self._step, self._mt, self._sp, self._dp, self._log,
            )
        ] + self._force_pointers + [self._fbuf.ctypes.data, self._ibuf.ctypes.data]

    def _load_cells(self, cells: Mapping):
        """Copy every tracked vertex's cell into the kernel's ``pos``."""
        pos = self._pos[: len(self._ids)]
        pos[:] = [cells[vertex] for vertex in self._ids]
        return pos

    def forces(self, cells: Mapping, order: Sequence[int]):
        """The kernel's force pass alone: ``(forces, steps)`` arrays.

        ``forces`` is the ``(n, 2)`` net force on every mover at ``cells``
        and ``steps`` the grid steps of proposals in ``order``, the values
        a :meth:`run` from these cells would use.  Raises ``ValueError``
        on a NaN force.
        """
        nodes = int(self._fp[_metrics_kernel.FP_NODES])
        self._load_cells(cells)
        count = len(order)
        self._order[:count] = order
        status = self._engine._kern.forces(
            *self._force_pointers, self._pos.ctypes.data, count,
            self._order.ctypes.data, self._fbuf.ctypes.data,
            self._ibuf.ctypes.data, self._step.ctypes.data,
        )
        if status == _metrics_kernel.STATUS_NAN_FORCE:
            raise ValueError(NAN_FORCE_ERROR)
        return (
            self._fbuf[: 2 * nodes].reshape(nodes, 2).copy(),
            self._step[:count].copy(),
        )

    def run(
        self,
        cells: Mapping,
        order: Sequence[int],
        temperature: float,
        rng,
    ) -> Tuple[List[Tuple[object, Tuple[int, int]]], int, int]:
        """Run one sweep; returns ``(moves, proposed, improving)``.

        ``cells`` maps every tracked vertex to its grid cell (the
        placement, re-read every sweep because community moves change it
        in between) and ``order`` lists mover indices in proposal order;
        the kernel derives each proposal's step from the forces at
        ``cells``.  ``rng`` (a :class:`random.Random`) crosses into the
        kernel and back through ``getstate``/``setstate``.  ``moves``
        lists the accepted ``(vertex, target_cell)`` pairs in acceptance
        order, for the caller to replay with ``Placement.move``; the
        tracker already holds their committed state.  A NaN force raises
        ``ValueError`` before any proposal, leaving tracker and ``rng``
        untouched.
        """
        k = _metrics_kernel
        tracker = self._tracker
        engine = self._engine
        tracker._flush_pending()
        tracker._pending_eval = None
        tracker._last_move = None
        ids = self._ids
        nv = len(ids)
        pos = self._load_cells(cells)
        before = pos.copy()
        self._occ.fill(-1)
        self._occ[pos[:, 0] * self._width + pos[:, 1]] = _np.arange(nv)
        n = len(order)
        self._order[:n] = order
        sp = self._sp
        dp = self._dp
        sp[k.SP_START] = 0
        sp[k.SP_COUNT] = n
        sp[k.SP_DRAWS] = sp[k.SP_PROPOSED] = sp[k.SP_EXACT] = 0
        sp[k.SP_ACCEPTED] = sp[k.SP_IMPROVING] = 0
        sp[k.SP_CROSSINGS] = tracker.crossings
        dp[k.DP_TEMPERATURE] = temperature
        dp[k.DP_TOTAL_LENGTH] = tracker.total_edge_length
        dp[k.DP_WEIGHTED_LENGTH] = tracker.total_weighted_length
        dp[k.DP_SPACING_SUM] = tracker.spacing_sum
        dp[k.DP_COST] = tracker._cost_value
        version, internal, gauss_next = rng.getstate()
        self._mt[:] = internal[:-1]
        sp[k.SP_MT_INDEX] = internal[-1]
        while (status := engine._kern.sweep(
            engine._ip_p, engine._bucket,
            engine._seg_p, engine._mid_p, engine._R_p,
            engine._eu_p, engine._ev_p, engine._crossC_p, engine._cflag_p,
            engine._cc_p, engine._ci_p,
            engine._stamp_p, engine._gen_p, engine._scratch_p,
            engine._changed_p, engine._newseg_p, engine._newmid_p,
            engine._newrow_p, *self._pointers,
        )) == 1:
            # A commit overflowed a grid cell: the state arrays are
            # current, so rebuild the grid and resume at sp[SP_START]
            # (with the steps the force pass already wrote).
            engine._rebuild_grid()
        if status == k.STATUS_NAN_FORCE:
            raise ValueError(NAN_FORCE_ERROR)
        if sp[k.SP_DRAWS]:
            internal = tuple(self._mt.tolist()) + (int(sp[k.SP_MT_INDEX]),)
            rng.setstate((version, internal, gauss_next))
        # Refresh the tracker's Python mirrors of the committed state.
        positions = tracker._positions
        incident = tracker._incident
        touched = set()
        for i in _np.flatnonzero((pos != before).any(axis=1)).tolist():
            vertex = ids[i]
            row, col = pos[i].tolist()
            positions[vertex] = (float(row), float(col))
            touched.update(incident.get(vertex, ()))
        for index in touched:
            a, b, _ = tracker._edges[index]
            p, q = positions[a], positions[b]
            tracker._ends[index] = (p, q)
            tracker._mids[index] = edge_midpoint(p, q)
        tracker.total_edge_length = float(dp[k.DP_TOTAL_LENGTH])
        tracker.total_weighted_length = float(dp[k.DP_WEIGHTED_LENGTH])
        tracker.spacing_sum = float(dp[k.DP_SPACING_SUM])
        tracker.crossings = int(sp[k.SP_CROSSINGS])
        tracker._cost_value = float(dp[k.DP_COST])
        moves = [
            (ids[v], (row, col))
            for v, row, col in self._log[: int(sp[k.SP_ACCEPTED])].tolist()
        ]
        return moves, int(sp[k.SP_PROPOSED]), int(sp[k.SP_IMPROVING])

    @property
    def exact_proposals(self) -> int:
        """Proposals of the last :meth:`run` that computed their distance rows.

        The kernel settles the others from a bound on the spacing term
        (see ``mc_sweep``).  The oracle loop evaluates every proposal in
        full, so this count has no ``RefineStats`` counterpart.
        """
        return int(self._sp[_metrics_kernel.SP_EXACT])


class MappingCostTracker:
    """Exact Fig. 6 metrics maintained incrementally under vertex moves.

    Holds the crossing count, the total (and weighted) Manhattan edge
    length, and the pairwise midpoint-distance sum behind the spacing
    metric for one placed interaction graph.  :meth:`apply` moves a batch
    of vertices and updates every metric by *delta*: only the edges
    incident to the moved vertices are re-tested, against their bucket
    neighbourhoods for crossings and against the cached per-edge midpoint
    row sums for spacing — O(deg * local density) per move instead of
    O(m^2) per recompute.

    An annealer's dominant path is *propose, inspect, reject*: use
    :meth:`evaluate` (pure) plus :meth:`commit_evaluated`, or, on the
    compiled engine, :meth:`kernel_sweep` to run a whole sweep of
    proposals inside the kernel.
    :meth:`apply` keeps the historical move-then-revert protocol:
    :meth:`revert_last` restores the pre-move state exactly and in O(1),
    because the heavy geometry updates are deferred until the *next*
    evaluation needs them (a reverted move never touches the engine).

    ``engine`` selects the evaluation backend (``compiled`` or
    ``scalar``, see the section comment above); ``None`` picks
    ``compiled`` whenever the metrics kernel loads.  Both engines are
    bit-identical on every reported value.

    Vertices present in ``positions`` but not in the graph (or isolated
    in it) may be moved freely; they contribute nothing to any metric.

    Positions are grid cells: every coordinate must be a finite integer
    value, which is what every mapper places on.  Construction,
    :meth:`evaluate` and :meth:`apply` raise ``ValueError`` naming the
    vertex otherwise.  Off the integer lattice the crossing predicates'
    1e-12 tolerance makes a pair's verdict depend on which segment is
    the query, and counts pairs that touch only within the tolerance,
    which a grid bucketing exact coordinates can miss; the engines use
    different grids and query orders, so they could disagree.  On
    integer cells the predicates are exact, which the compiled grid's
    soundness rests on, and both engines count one pair set.
    """

    def __init__(
        self,
        graph: Graph,
        positions: PositionMap,
        length_weight: float = 1.0,
        spacing_weight: float = 1.0,
        crossing_weight: float = 4.0,
        bucket_size: Optional[float] = None,
        engine: Optional[str] = None,
    ) -> None:
        self.graph = graph
        self.length_weight = length_weight
        self.spacing_weight = spacing_weight
        self.crossing_weight = crossing_weight

        self._positions: Dict[int, Position] = {
            vertex: _cell_position(vertex, pos)
            for vertex, pos in positions.items()
        }
        self._edges: List[Tuple[int, int, float]] = []
        self._incident: Dict[int, List[int]] = defaultdict(list)
        for a, b, data in graph.edges(data=True):
            if a == b:
                continue
            if a not in self._positions or b not in self._positions:
                raise KeyError(f"edge ({a}, {b}) has an unplaced endpoint")
            index = len(self._edges)
            self._edges.append((a, b, float(data.get("weight", 1))))
            self._incident[a].append(index)
            self._incident[b].append(index)

        self._ends: List[Tuple[Position, Position]] = [
            (self._positions[a], self._positions[b]) for a, b, _ in self._edges
        ]
        self._mids: List[Position] = [
            edge_midpoint(p, q) for p, q in self._ends
        ]

        if bucket_size is None:
            bucket_size = _auto_bucket_size(
                [(a, b, p, q) for (a, b, _), (p, q) in zip(self._edges, self._ends)]
            )
        if bucket_size <= 0:
            raise ValueError(f"bucket_size must be positive, got {bucket_size}")

        self._engine = self._build_engine(engine, float(bucket_size))
        self.engine: str = self._engine.name

        self.total_edge_length = 0.0
        self.total_weighted_length = 0.0
        for (p, q), (_, _, weight) in zip(self._ends, self._edges):
            length = manhattan_distance(p, q)
            self.total_edge_length += length
            self.total_weighted_length += weight * length
        self.crossings: int = self._engine.crossings
        self.spacing_sum: float = self._engine.spacing_sum
        #: Cached combined cost of the committed state (pure function of
        #: the three sums above; refreshed on commit and revert).
        self._cost_value: float = self._cost_from(
            self.crossings, self.total_edge_length, self.spacing_sum
        )

        #: Committed move whose geometry the engine has not absorbed yet.
        self._pending: Optional[tuple] = None
        #: Result of the last :meth:`evaluate`, awaiting commit.
        self._pending_eval: Optional[tuple] = None
        #: Snapshot for :meth:`revert_last`; ``None`` when nothing to revert.
        self._last_move: Optional[tuple] = None

    def _build_engine(self, requested: Optional[str], bucket_size: float):
        if requested not in (None, "compiled", "scalar"):
            raise ValueError(
                f"unknown tracker engine {requested!r}; "
                "expected 'compiled', 'scalar' or None"
            )
        kern = _metrics_kernel.load() if requested != "scalar" else None
        if kern is not None:
            return _CompiledTrackerEngine(
                self._edges, self._ends, self._mids, bucket_size, kern
            )
        if requested == "compiled":
            raise ValueError(
                "engine 'compiled' unusable: the metrics kernel is unavailable"
            )
        return _ScalarTrackerEngine(
            self._edges, self._ends, self._mids, bucket_size
        )

    def kernel_sweep(
        self, movers: Sequence, height: int, width: int, forces: SweepForces
    ) -> Optional[KernelSweep]:
        """A :class:`KernelSweep` over this tracker, or None off the compiled engine.

        ``movers`` are the vertices an annealing sweep proposes moves
        for, on a ``height`` x ``width`` placement grid, and ``forces``
        the field that steers them (indexed like ``movers``).
        """
        if self.engine != "compiled":
            return None
        return KernelSweep(self, movers, height, width, forces)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of (non-loop) tracked edges."""
        return len(self._edges)

    def position(self, vertex: int) -> Position:
        """The tracked position of ``vertex``."""
        return self._positions[vertex]

    def metrics(self) -> Dict[str, float]:
        """The three Fig. 6 metrics, keyed like :func:`mapping_metrics`."""
        m = len(self._edges)
        pairs = m * (m - 1) // 2
        return {
            "edge_crossings": float(self.crossings),
            "average_edge_length": self.total_edge_length / m if m else 0.0,
            "average_edge_spacing": self.spacing_sum / pairs if pairs else 0.0,
        }

    def cost(self) -> float:
        """The combined scalar cost, identical to :func:`mapping_cost`."""
        return self._cost_value

    def _cost_from(
        self, crossings: int, total_length: float, spacing_sum: float
    ) -> float:
        m = len(self._edges)
        pairs = m * (m - 1) // 2
        return combine_metric_cost(
            float(crossings),
            total_length / m if m else 0.0,
            spacing_sum / pairs if pairs else 0.0,
            length_weight=self.length_weight,
            spacing_weight=self.spacing_weight,
            crossing_weight=self.crossing_weight,
        )

    # ------------------------------------------------------------------
    # Move evaluation
    # ------------------------------------------------------------------
    def _flush_pending(self) -> None:
        if self._pending is not None:
            changed, new_ends, new_mids = self._pending
            self._pending = None
            self._engine.flush(changed, new_ends, new_mids)

    def _prepare(self, updates: Mapping[int, Position]):
        moves: Dict[int, Position] = {}
        for vertex, pos in updates.items():
            if vertex in self._positions:
                moves[vertex] = _cell_position(vertex, pos)
        moved_from = {vertex: self._positions[vertex] for vertex in moves}
        changed: List[int] = sorted(
            {index for vertex in moves for index in self._incident.get(vertex, ())}
        )
        return moves, moved_from, changed

    def _geometry_for(self, moves: Mapping[int, Position], changed: Sequence[int]):
        positions = self._positions
        new_ends: List[Tuple[Position, Position]] = []
        new_mids: List[Position] = []
        for index in changed:
            a, b, _ = self._edges[index]
            p = moves[a] if a in moves else positions[a]
            q = moves[b] if b in moves else positions[b]
            new_ends.append((p, q))
            new_mids.append(edge_midpoint(p, q))
        return new_ends, new_mids

    def _assemble_delta(self, changed, new_ends, new_mids, newrows, old_cross, new_cross):
        """Cost delta + post-move sums from an engine evaluation (pure).

        Runs the tiny k-term arithmetic in shared Python code so every
        engine produces bit-identical deltas: the engines contribute only
        the tree-folded rows and the crossing counts.
        """
        engine = self._engine
        ends = self._ends
        edges = self._edges
        mids = self._mids
        sqrt = math.sqrt
        total_length = self.total_edge_length
        weighted_length = self.total_weighted_length
        for t, index in enumerate(changed):
            p_old, q_old = ends[index]
            p, q = new_ends[t]
            old_len = abs(p_old[0] - q_old[0]) + abs(p_old[1] - q_old[1])
            new_len = abs(p[0] - q[0]) + abs(p[1] - q[1])
            total_length += new_len - old_len
            weighted_length += edges[index][2] * (new_len - old_len)
        old_spacing = 0.0
        for index in changed:
            old_spacing += engine.row_sum(index)
        old_mids = [mids[index] for index in changed]
        k = len(changed)
        for t in range(k):
            row, col = old_mids[t]
            for u in range(t + 1, k):
                other_row, other_col = old_mids[u]
                dr = row - other_row
                dc = col - other_col
                old_spacing -= sqrt(dr * dr + dc * dc)
        new_spacing = 0.0
        for value in newrows:
            new_spacing += value
        for t in range(k):
            row, col = new_mids[t]
            for u in range(t + 1, k):
                other_row, other_col = new_mids[u]
                dr = row - other_row
                dc = col - other_col
                new_spacing += sqrt(dr * dr + dc * dc)
        crossings_after = self.crossings + (new_cross - old_cross)
        spacing_after = self.spacing_sum + (new_spacing - old_spacing)
        cost_after = self._cost_from(crossings_after, total_length, spacing_after)
        delta = cost_after - self._cost_value
        return delta, (total_length, weighted_length, crossings_after, spacing_after), cost_after

    def evaluate(self, updates: Mapping[int, Position]) -> float:
        """Cost delta of moving vertices to new positions, without moving.

        Pure with respect to the tracked state: nothing changes until
        :meth:`commit_evaluated` (which reuses this evaluation — no
        geometry test runs twice).  Unknown vertices are ignored; moves
        that touch no edge cost 0.0.  A tracked vertex moved off the
        integer grid raises ``ValueError`` and changes nothing.
        """
        moves, moved_from, changed = self._prepare(updates)
        if not moves or not changed:
            self._pending_eval = (moves, moved_from, changed, None)
            return 0.0
        self._flush_pending()
        new_ends, new_mids = self._geometry_for(moves, changed)
        newrows, old_cross, new_cross = self._engine.eval(
            changed, new_ends, new_mids
        )
        delta, sums_after, cost_after = self._assemble_delta(
            changed, new_ends, new_mids, newrows, old_cross, new_cross
        )
        self._pending_eval = (
            moves, moved_from, changed, (new_ends, new_mids, sums_after, cost_after)
        )
        return delta

    def commit_evaluated(self) -> None:
        """Make the last :meth:`evaluate` move the committed state.

        Cheap: positions, endpoints, midpoints and the metric sums come
        from the stored evaluation; the engine's heavy geometry update is
        deferred until the next evaluation needs it, so a subsequent
        :meth:`revert_last` stays O(1).
        """
        if self._pending_eval is None:
            raise RuntimeError("no evaluate() to commit")
        moves, moved_from, changed, record = self._pending_eval
        self._pending_eval = None
        if record is None:
            self._positions.update(moves)
            self._last_move = (moved_from, [], [], [], None)
            return
        new_ends, new_mids, sums_after, cost_after = record
        ends_before = [self._ends[index] for index in changed]
        mids_before = [self._mids[index] for index in changed]
        sums_before = (
            self.total_edge_length,
            self.total_weighted_length,
            self.crossings,
            self.spacing_sum,
            self._cost_value,
        )
        self._positions.update(moves)
        for t, index in enumerate(changed):
            self._ends[index] = new_ends[t]
            self._mids[index] = new_mids[t]
        (
            self.total_edge_length,
            self.total_weighted_length,
            self.crossings,
            self.spacing_sum,
        ) = sums_after
        self._cost_value = cost_after
        self._pending = (changed, new_ends, new_mids)
        self._last_move = (moved_from, changed, ends_before, mids_before, sums_before)

    def apply(self, updates: Mapping[int, Position]) -> float:
        """Move vertices to new positions; returns the combined-cost delta.

        ``updates`` maps vertices to their new ``(row, col)`` positions,
        integer cells like every tracked position (``ValueError``
        otherwise).  Unknown vertices are ignored.  Undo with :meth:`revert_last`
        (cheap, restores the pre-move state exactly) or by applying the
        inverse mapping.
        """
        delta = self.evaluate(updates)
        self.commit_evaluated()
        return delta

    def revert_last(self) -> None:
        """Undo the most recent :meth:`apply`, restoring its pre-move state.

        Exact and cheap: positions, endpoints, midpoints and the metric
        sums are restored from the commit-time snapshot, and the engine
        update is simply cancelled when still pending (the common case —
        no crossing test or spacing fold runs at all).  One-shot: raises
        :class:`RuntimeError` if there is no un-reverted apply.
        """
        if self._last_move is None:
            raise RuntimeError("no apply() to revert")
        moved_from, changed, ends_before, mids_before, sums_before = self._last_move
        self._last_move = None
        self._pending_eval = None
        self._positions.update(moved_from)
        if not changed:
            return
        if self._pending is not None:
            # The engine never saw this move: dropping it is the undo.
            self._pending = None
        else:
            # An evaluation in between already flushed the move; push the
            # old geometry back through the engine.
            self._engine.flush(changed, ends_before, mids_before)
        for t, index in enumerate(changed):
            self._ends[index] = ends_before[t]
            self._mids[index] = mids_before[t]
        (
            self.total_edge_length,
            self.total_weighted_length,
            self.crossings,
            self.spacing_sum,
            self._cost_value,
        ) = sums_before


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient between two equal-length samples.

    Used to reproduce the r-values of Fig. 6.  Returns 0.0 when either sample
    has zero variance (a degenerate but non-erroneous case).
    """
    if len(xs) != len(ys):
        raise ValueError("samples must have equal length")
    n = len(xs)
    if n < 2:
        return 0.0
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x <= 0 or var_y <= 0:
        return 0.0
    # Multiply the square roots rather than square-rooting the product:
    # var_x * var_y underflows to 0.0 for near-denormal variances, which
    # would divide by zero despite the positive-variance guard above.
    denominator = math.sqrt(var_x) * math.sqrt(var_y)
    if denominator == 0.0:
        return 0.0
    return cov / denominator
