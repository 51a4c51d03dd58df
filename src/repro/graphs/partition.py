"""Multilevel recursive graph bisection (METIS-style).

Section VI-B.2 of the paper uses a recursive bisectioning technique in the
style of METIS / Scotch: vertices are *coarsened* by heavy-edge matching, a
minimum-weight cut is found on the contracted graph, the cut is projected
back (*uncoarsened*) and refined to repair discrepancies introduced by the
coarsening, and the whole procedure recurses on both halves.  Each graph
bisection is matched by a bisection of the physical grid, which yields the
graph-partitioning (GP) mapping evaluated throughout the paper.

This module implements the graph side of that procedure: coarsening,
balanced bisection with Kernighan-Lin-style boundary refinement, and the
recursive driver that returns a hierarchy of vertex blocks.  The grid side
(matching grid bisections and final cell assignment) lives in
:mod:`repro.mapping.graph_partition`.

The public functions take an interaction :class:`~repro.graphs.adjacency.Graph`
or a networkx graph and convert it once to a plain
:data:`~repro.graphs.adjacency.Adjacency` plus a ``{vertex: size}`` map
(the ``size`` node attribute, 1 when missing); coarse graphs are
adjacencies with their own size maps.  Every iteration order follows the
input graph's, which is networkx's (see :mod:`repro.graphs.adjacency`), so
the blocks and the GP placements are the ones the networkx-backed version
produced.

:func:`bisect_left` runs the whole multilevel bisection in the mapping
kernel (``mc_bisect`` in ``repro/kernels/metrics_kernel.c``) whenever the
kernel loads, through a :class:`Bisector`, which holds the adjacency as
CSR arrays and also bisects the subgraphs it induces without copying them.
The kernel replays the Python functions below, which stay as its oracle
(:func:`bisect_left_reference`; ``REPRO_NO_KERNEL=1`` pins them): the
seeding of ``random.Random(seed)`` for int seeds, ``shuffle`` and
``choice``, every stable sort and first-max tie, every float sum in
neighbour order (``sum()``'s compensated float adds from Python 3.12
included) and the coarse graphs' neighbour order.  Only what depends on
Python's set order stays in Python: the node order of an induced subgraph
(:func:`~repro.graphs.adjacency.subgraph_order`) and the vertex order of
the first refinement (``{v for v in adj}``).  Graphs the kernel cannot
replay exactly go to the oracle: weights that are not all ``int`` or
``float``, weights that are NaN or infinite or whose absolute values sum
past 2**52 (ints and their sums would stop being exact in a double),
sizes that are not all ``int`` or that sum past 2**61 in absolute value,
and adjacencies that are not symmetric; so do calls whose seed is not an
int or whose ``target_left`` or ``coarsen_threshold`` is not an int.
"""

from __future__ import annotations

import random
import sys
from collections import deque
from itertools import chain
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..kernels import metrics as _metrics_kernel
from ..kernels.metrics import (
    BP_COMPENSATED,
    BP_COUNT,
    BP_INDUCED,
    BP_NEGATIVE,
    BP_SEED_WORDS,
    BP_SLOTS,
    BP_TARGET,
    BP_THRESHOLD,
)
from .adjacency import (
    Adjacency,
    adjacency,
    edges,
    induced_subgraph,
    subgraph_order,
    weighted_degree,
)

#: ``{vertex: size}``: how many original vertices each vertex stands for.
Sizes = Dict[Hashable, int]


@dataclass
class Bisection:
    """Result of bisecting a vertex set into two balanced halves."""

    left: List[int]
    right: List[int]
    cut_weight: float


def vertex_sizes(graph) -> Sizes:
    """Each node's ``size`` attribute (1 when missing), in node order."""
    return {v: data.get("size", 1) for v, data in graph.nodes(data=True)}


def heavy_edge_matching(graph, seed: int = 0) -> List[Tuple[int, ...]]:
    """Contract vertices pairwise along heavy edges.

    Visits vertices in random order and matches each unmatched vertex with
    its unmatched neighbour of maximum edge weight; unmatched leftovers form
    singleton groups.  Returns the list of vertex groups (size 1 or 2) that
    become the super-vertices of the coarser graph.
    """
    return _heavy_edge_matching(adjacency(graph), seed)


def _heavy_edge_matching(adj: Adjacency, seed: int) -> List[Tuple[int, ...]]:
    rng = random.Random(seed)
    vertices = list(adj)
    rng.shuffle(vertices)
    matched: Set[int] = set()
    groups: List[Tuple[int, ...]] = []
    for vertex in vertices:
        if vertex in matched:
            continue
        best_neighbor = None
        best_weight = -1.0
        for neighbor, weight in adj[vertex].items():
            if neighbor in matched or neighbor == vertex:
                continue
            if weight > best_weight:
                best_weight = weight
                best_neighbor = neighbor
        matched.add(vertex)
        if best_neighbor is None:
            groups.append((vertex,))
        else:
            matched.add(best_neighbor)
            groups.append((vertex, best_neighbor))
    return groups


def contract(
    graph, groups: Sequence[Tuple[int, ...]]
) -> Tuple[Adjacency, Sizes, Dict[int, int]]:
    """Build the coarse graph induced by ``groups``.

    Returns the coarse adjacency (nodes are group indices), its size map
    (each group's total vertex size) and the fine-vertex to coarse-node
    map.
    """
    return _contract(adjacency(graph), vertex_sizes(graph), groups)


def _contract(
    adj: Adjacency, sizes: Sizes, groups: Sequence[Tuple[int, ...]]
) -> Tuple[Adjacency, Sizes, Dict[int, int]]:
    coarse: Adjacency = {index: {} for index in range(len(groups))}
    coarse_sizes: Sizes = {}
    membership: Dict[int, int] = {}
    for index, group in enumerate(groups):
        coarse_sizes[index] = sum(sizes[v] for v in group)
        for vertex in group:
            membership[vertex] = index
    for a, b, weight in edges(adj):
        ca, cb = membership[a], membership[b]
        if ca == cb:
            continue
        row = coarse[ca]
        if cb in row:
            row[cb] += weight
        else:
            row[cb] = weight
        coarse[cb][ca] = row[cb]
    return coarse, coarse_sizes, membership


def cut_weight(graph, left: Set[int]) -> float:
    """Total weight of edges crossing the partition boundary."""
    return _cut_weight(adjacency(graph), left)


def _cut_weight(adj: Adjacency, left: Set[int]) -> float:
    weight = 0.0
    for a, b, edge_weight in edges(adj):
        if (a in left) != (b in left):
            weight += edge_weight
    return weight


def _initial_bisection(
    adj: Adjacency, sizes: Sizes, target_left: int, seed: int = 0
) -> Set[int]:
    """Greedy BFS-based initial bisection growing a region of ``target_left`` size."""
    rng = random.Random(seed)
    vertices = list(adj)
    if not vertices:
        return set()
    start = max(vertices, key=lambda v: weighted_degree(adj[v], v))
    left: Set[int] = set()
    left_size = 0
    frontier = deque([start])
    visited = {start}
    while frontier and left_size < target_left:
        vertex = frontier.popleft()
        if left_size + sizes[vertex] > target_left and left:
            continue
        left.add(vertex)
        left_size += sizes[vertex]
        nbrs = adj[vertex]
        neighbors = sorted(
            (n for n in nbrs if n not in visited), key=lambda n: -nbrs[n]
        )
        for neighbor in neighbors:
            visited.add(neighbor)
            frontier.append(neighbor)
        if not frontier:
            remaining = [v for v in vertices if v not in visited]
            if remaining:
                pick = rng.choice(remaining)
                visited.add(pick)
                frontier.append(pick)
    return left


def _refine_bisection(
    adj: Adjacency,
    sizes: Sizes,
    left: Set[int],
    target_left: int,
    max_passes: int = 4,
    balance_tolerance: int = 1,
) -> Set[int]:
    """Kernighan-Lin style boundary refinement of a bisection.

    Repeatedly moves the boundary vertex with the best gain (reduction in cut
    weight) to the other side, subject to keeping the left-side vertex count
    within ``balance_tolerance`` of ``target_left``.
    """
    left = set(left)
    # Built one vertex at a time like ``set(graph.nodes())``, so the boundary
    # (and the sort's tie order) comes out in the same order.
    all_vertices = {v for v in adj}

    def gain(vertex: int) -> float:
        internal = 0.0
        external = 0.0
        in_left = vertex in left
        for neighbor, weight in adj[vertex].items():
            if (neighbor in left) == in_left:
                internal += weight
            else:
                external += weight
        return external - internal

    left_size = sum(sizes[v] for v in left)
    for _ in range(max_passes):
        moved_any = False
        # A vertex is on the boundary when a neighbour sits on the other side.
        boundary = [
            v
            for v in all_vertices
            if (
                not left.issuperset(adj[v])
                if v in left
                else not left.isdisjoint(adj[v])
            )
        ]
        boundary.sort(key=gain, reverse=True)
        for vertex in boundary:
            vertex_gain = gain(vertex)
            if vertex_gain <= 0:
                break
            size = sizes[vertex]
            if vertex in left:
                new_left_size = left_size - size
            else:
                new_left_size = left_size + size
            if abs(new_left_size - target_left) > balance_tolerance + max(
                0, abs(left_size - target_left)
            ):
                continue
            if vertex in left:
                left.remove(vertex)
            else:
                left.add(vertex)
            left_size = new_left_size
            moved_any = True
        if not moved_any:
            break
    return left


def bisect(
    graph,
    target_left: Optional[int] = None,
    seed: int = 0,
    coarsen_threshold: int = 32,
) -> Bisection:
    """Bisect the graph into two balanced halves with small cut weight.

    If the graph is larger than ``coarsen_threshold`` vertices, it is first
    coarsened via heavy-edge matching, bisected recursively, and the result
    projected back and refined — the classic multilevel scheme.
    """
    adj = adjacency(graph)
    left = bisect_left(adj, vertex_sizes(graph), target_left, seed, coarsen_threshold)
    return Bisection(
        left=sorted(left),
        right=sorted(v for v in adj if v not in left),
        cut_weight=_cut_weight(adj, left),
    )


def bisect_left(
    adj: Adjacency,
    sizes: Sizes,
    target_left: Optional[int] = None,
    seed: int = 0,
    coarsen_threshold: int = 32,
) -> Set[int]:
    """The left half of :func:`bisect`'s cut of an adjacency, as a set."""
    bisector = Bisector(adj, sizes)
    return bisector.bisect_left(None, target_left, seed, coarsen_threshold)


def bisect_left_reference(
    adj: Adjacency,
    sizes: Sizes,
    target_left: Optional[int] = None,
    seed: int = 0,
    coarsen_threshold: int = 32,
) -> Set[int]:
    """:func:`bisect_left` in Python: the oracle the kernel replays."""
    vertices = list(adj)
    if target_left is None:
        target_left = sum(sizes[v] for v in vertices) // 2
    if len(vertices) <= 1:
        return set(vertices)

    initial = None
    if len(vertices) > coarsen_threshold:
        groups = _heavy_edge_matching(adj, seed)
        if len(groups) < len(vertices):
            coarse, coarse_sizes, membership = _contract(adj, sizes, groups)
            coarse_left = bisect_left_reference(
                coarse,
                coarse_sizes,
                target_left=target_left,
                seed=seed + 1,
                coarsen_threshold=coarsen_threshold,
            )
            initial = {v for v in vertices if membership[v] in coarse_left}
    if initial is None:
        initial = _initial_bisection(adj, sizes, target_left, seed=seed)
    return _refine_bisection(adj, sizes, initial, target_left)


#: Bounds of what the kernel replays exactly: ints and every sum of them
#: stay exact in a double while the absolute weights sum to at most
#: ``_WEIGHT_BOUND`` (a self-loop counts twice in a degree), and the size
#: and balance arithmetic stays inside int64 below ``_SIZE_BOUND``.
_WEIGHT_BOUND = 2**52
_SIZE_BOUND = 2**61


class Bisector:
    """Bisects one adjacency, or subgraphs it induces, in the kernel when it can.

    The adjacency becomes CSR arrays once: node ``i`` is its ``i``-th key,
    and a row lists the node's neighbours, weights and weight types in
    dict order.  Each :meth:`bisect_left` then hands the kernel only the
    node orders that depend on Python's set order.  Without the kernel, or
    on a graph or call it cannot replay exactly (see the module
    docstring), :func:`bisect_left_reference` runs instead, on the
    adjacency or on an induced dict copy.  A bisector is not thread-safe:
    its calls share scratch buffers.
    """

    def __init__(self, adj: Adjacency, sizes: Sizes) -> None:
        self.adj = adj
        self.sizes = sizes
        kernel = _metrics_kernel.load()
        self._kernel = kernel if kernel is not None and self._build() else None

    def _build(self) -> bool:
        """Fill the CSR arrays; False when the kernel cannot take the graph."""
        adj = self.adj
        rows = list(adj.values())
        weights = [w for row in rows for w in row.values()]
        kinds = set(map(type, weights))
        node_sizes = [self.sizes[v] for v in adj]
        if not (
            kinds <= {int, float}
            and set(map(type, node_sizes)) <= {int}
            and sum(map(abs, node_sizes)) <= _SIZE_BOUND
        ):
            return False
        try:
            weight = np.array(weights, dtype=np.float64)
        except OverflowError:
            return False
        if not np.abs(weight).sum() <= _WEIGHT_BOUND:  # NaN fails here too
            return False
        if kinds == {float}:
            ints = np.zeros(len(weights), dtype=np.uint8)
        elif kinds == {int}:
            ints = np.ones(len(weights), dtype=np.uint8)
        else:
            ints = np.array([type(w) is int for w in weights], dtype=np.uint8)
        self._index = index = {v: i for i, v in enumerate(adj)}
        n = len(index)
        degree = np.fromiter(map(len, rows), dtype=np.int64, count=n)
        off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degree, out=off[1:])
        nbr = np.fromiter(
            map(index.__getitem__, chain.from_iterable(rows)),
            dtype=np.int64,
            count=len(weights),
        )
        # Symmetric: every entry (u, v) has a twin (v, u) of equal weight
        # and type.  A row holds each neighbour once, so sorting the entries
        # by (u, v) and by (v, u) lines each one up with its only possible
        # twin.
        node = np.repeat(np.arange(n, dtype=np.int64), degree)
        forward = np.argsort(node * n + nbr, kind="stable")
        backward = np.argsort(nbr * n + node, kind="stable")
        if not (
            np.array_equal(node[forward], nbr[backward])
            and np.array_equal(nbr[forward], node[backward])
            and np.array_equal(weight[forward], weight[backward])
            and np.array_equal(ints[forward], ints[backward])
        ):
            return False
        self._params = np.zeros(BP_SLOTS, dtype=np.int64)
        self._params[BP_COMPENSATED] = sys.version_info >= (3, 12)
        self._order = np.zeros(n + 1, dtype=np.int64)
        self._visit = np.zeros(n + 1, dtype=np.int64)
        self._left = np.zeros(n + 1, dtype=np.int64)
        # mc_bisect's array arguments, kept alive with their addresses.
        self._arrays = (
            self._params,
            off,
            nbr,
            weight,
            ints,
            np.array(node_sizes, dtype=np.int64),
            self._order,
            self._visit,
            np.full(n + 1, -1, dtype=np.int64),
            self._left,
        )
        self._addresses = [array.ctypes.data for array in self._arrays]
        return True

    def bisect_left(
        self,
        vertices: Optional[Iterable[Hashable]] = None,
        target_left: Optional[int] = None,
        seed: int = 0,
        coarsen_threshold: int = 32,
    ) -> Set[Hashable]:
        """``bisect_left(adj, sizes, ...)``; with ``vertices``,
        ``bisect_left(induced_subgraph(adj, vertices), sizes, ...)``."""
        if (
            self._kernel is None
            or not isinstance(seed, int)
            or not (target_left is None or type(target_left) is int)
            or abs(target_left or 0) > _SIZE_BOUND
            or type(coarsen_threshold) is not int
        ):
            adj = self.adj
            if vertices is not None:
                adj = induced_subgraph(adj, vertices)
            return bisect_left_reference(
                adj, self.sizes, target_left, seed, coarsen_threshold
            )
        index = self._index
        if vertices is None:
            order = list(self.adj)
        else:
            order = list(subgraph_order(self.adj, vertices)[0])
            self._order[: len(order)] = [index[v] for v in order]
        if target_left is None:
            target_left = sum(self.sizes[v] for v in order) // 2
        self._visit[: len(order)] = [index[v] for v in {v for v in order}]
        magnitude = abs(int(seed))
        words = (magnitude.bit_length() + 31) // 32
        params = self._params
        params[BP_COUNT] = len(order)
        params[BP_INDUCED] = vertices is not None
        params[BP_TARGET] = target_left
        params[BP_THRESHOLD] = max(-1, min(coarsen_threshold, _SIZE_BOUND))
        params[BP_NEGATIVE] = seed < 0
        params[BP_SEED_WORDS] = words
        seed_words = magnitude.to_bytes(4 * words, "little")
        count = self._kernel.bisect(*self._addresses, seed_words)
        if count < 0:
            raise MemoryError("the bisection kernel ran out of memory")
        return {order[i] for i in self._left[:count].tolist()}


def recursive_bisection(
    graph,
    num_parts: int,
    seed: int = 0,
) -> List[List[int]]:
    """Partition the graph into ``num_parts`` balanced blocks recursively.

    The recursion splits the requested part count as evenly as possible at
    every level (left gets ``ceil(parts/2)`` parts), so non-power-of-two part
    counts are supported.  Returns the blocks in recursion order.
    """
    if num_parts < 1:
        raise ValueError(f"num_parts must be >= 1, got {num_parts}")
    return _recursive_bisection(adjacency(graph), vertex_sizes(graph), num_parts, seed)


def _recursive_bisection(
    adj: Adjacency, sizes: Sizes, num_parts: int, seed: int
) -> List[List[int]]:
    vertices = list(adj)
    if num_parts == 1 or len(vertices) <= 1:
        return [sorted(vertices)]
    left_parts = (num_parts + 1) // 2
    right_parts = num_parts - left_parts
    total = len(vertices)
    target_left = round(total * left_parts / num_parts)
    left = bisect_left(adj, sizes, target_left=target_left, seed=seed)
    blocks = _recursive_bisection(
        induced_subgraph(adj, sorted(left)), sizes, left_parts, seed * 2 + 1
    )
    right = sorted(v for v in vertices if v not in left)
    blocks += _recursive_bisection(
        induced_subgraph(adj, right), sizes, right_parts, seed * 2 + 2
    )
    return blocks
