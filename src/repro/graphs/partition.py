"""Multilevel recursive graph bisection (METIS-style, pure Python).

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
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from .adjacency import (
    Adjacency,
    adjacency,
    edges,
    induced_subgraph,
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
            coarse_left = bisect_left(
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
