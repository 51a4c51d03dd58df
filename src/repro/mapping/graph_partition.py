"""Recursive graph-partitioning grid embedding (the paper's "GP" mapper).

Section VI-B.2: the interaction graph is recursively bisected (multilevel
heavy-edge-matching coarsening + refined min-cut, see
:mod:`repro.graphs.partition`) and every graph bisection is matched by a
bisection of the physical grid region into which the qubits are being
mapped.  The recursion bottoms out when a region holds a handful of qubits,
which are then assigned to cells directly.  Because every cut minimises the
number of interaction edges that cross it, strongly interacting qubits end up
spatially close and the global structure of the circuit (including the
permutation edges of a multi-level factory) is optimised directly.

The mapper converts its graph once to a plain adjacency (see
:mod:`repro.graphs.adjacency`) that iterates in networkx's order, so its
placements are the networkx-backed ones.  One
:class:`~repro.graphs.partition.Bisector` per placement holds that
adjacency as CSR arrays, and every recursion node has the mapping kernel
bisect the subgraph its vertices induce, without building it; without the
kernel each node bisects an induced dict copy in Python, with the same
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..circuits.circuit import Circuit
from ..graphs.adjacency import Adjacency, adjacency
from ..graphs.interaction import interaction_graph
from ..graphs.partition import Bisector, vertex_sizes
from .placement import Cell, Placement, grid_dimensions_for


@dataclass(frozen=True)
class GridRegion:
    """A rectangular sub-region of the tile grid ([row0, row1) x [col0, col1))."""

    row0: int
    col0: int
    row1: int
    col1: int

    @property
    def height(self) -> int:
        return self.row1 - self.row0

    @property
    def width(self) -> int:
        return self.col1 - self.col0

    @property
    def area(self) -> int:
        return self.height * self.width

    def cells(self) -> List[Cell]:
        """All cells of the region in row-major order."""
        return [
            (row, col)
            for row in range(self.row0, self.row1)
            for col in range(self.col0, self.col1)
        ]

    def split(self, left_fraction: float) -> Tuple["GridRegion", "GridRegion"]:
        """Bisect the region along its longer axis.

        ``left_fraction`` is the fraction of the area the first half should
        receive; the cut is placed on the nearest whole row/column while
        keeping both halves non-empty.
        """
        if self.height >= self.width:
            split_row = self.row0 + max(
                1, min(self.height - 1, round(self.height * left_fraction))
            )
            return (
                GridRegion(self.row0, self.col0, split_row, self.col1),
                GridRegion(split_row, self.col0, self.row1, self.col1),
            )
        split_col = self.col0 + max(
            1, min(self.width - 1, round(self.width * left_fraction))
        )
        return (
            GridRegion(self.row0, self.col0, self.row1, split_col),
            GridRegion(self.row0, split_col, self.row1, self.col1),
        )


def _embed_recursive(
    adj: Adjacency,
    bisector: Bisector,
    vertices: List[int],
    region: GridRegion,
    placement: Placement,
    seed: int,
    leaf_size: int,
) -> None:
    """Recursively bisect ``vertices`` and ``region`` together."""
    if not vertices:
        return
    if len(vertices) > region.area:
        raise ValueError(
            f"region of area {region.area} cannot hold {len(vertices)} qubits"
        )
    if (
        len(vertices) <= leaf_size
        or region.area <= leaf_size
        or min(region.height, region.width) <= 1
    ):
        _place_leaf(adj, vertices, region, placement)
        return

    cut = bisector.bisect_left(vertices, target_left=len(vertices) // 2, seed=seed)
    left = sorted(cut)
    right = sorted(v for v in vertices if v not in cut)
    if not left or not right:
        # Degenerate cut (e.g. disconnected dust): fall back to an even split.
        middle = len(vertices) // 2
        left, right = vertices[:middle], vertices[middle:]
    left_fraction = len(left) / (len(left) + len(right))
    region_left, region_right = region.split(left_fraction)
    if region_left.area < len(left) or region_right.area < len(right):
        # The rounding starved one side; rebalance by swapping the split.
        region_left, region_right = region.split(len(left) / max(1, len(vertices)))
        if region_left.area < len(left) or region_right.area < len(right):
            _place_leaf(adj, vertices, region, placement)
            return
    _embed_recursive(
        adj, bisector, left, region_left, placement, seed * 2 + 1, leaf_size
    )
    _embed_recursive(
        adj, bisector, right, region_right, placement, seed * 2 + 2, leaf_size
    )


def _place_leaf(
    adj: Adjacency, vertices: List[int], region: GridRegion, placement: Placement
) -> None:
    for vertex, cell in zip(_order_leaf_vertices(adj, vertices), region.cells()):
        placement.place(vertex, cell)


def _order_leaf_vertices(adj: Adjacency, vertices: List[int]) -> List[int]:
    """Order a leaf's vertices so strongly connected ones are adjacent.

    A simple greedy chain: start from the highest-degree vertex and repeatedly
    append the unvisited vertex most strongly connected to the current one.
    Degrees and neighbours are those of the subgraph induced by ``vertices``.
    """
    if len(vertices) <= 2:
        return sorted(vertices)
    remaining = set(vertices)

    def degree(v: int):
        nbrs = adj[v]
        return sum(w for n, w in nbrs.items() if n in remaining) + (
            v in nbrs and nbrs[v]
        )

    current = max(remaining, key=degree)
    order = [current]
    remaining.remove(current)
    while remaining:
        neighbors = [(w, n) for n, w in adj[current].items() if n in remaining]
        if neighbors:
            _, best = max(neighbors)
        else:
            best = min(remaining)
        order.append(best)
        remaining.remove(best)
        current = best
    return order


def graph_partition_placement(
    circuit_or_graph,
    width: Optional[int] = None,
    height: Optional[int] = None,
    qubits: Optional[Sequence[int]] = None,
    seed: int = 0,
    leaf_size: int = 4,
    slack: float = 1.3,
) -> Placement:
    """Map a circuit (or interaction graph) onto a grid by recursive bisection.

    Parameters
    ----------
    circuit_or_graph:
        A :class:`~repro.circuits.circuit.Circuit` or a pre-built interaction
        graph.
    width, height:
        Grid dimensions; chosen automatically with routing slack when omitted.
    qubits:
        Explicit vertex set to place (defaults to every circuit qubit / graph
        node).
    seed:
        Random seed threaded through the coarsening heuristics.
    leaf_size:
        Recursion stops when a region holds this many qubits or fewer.
    slack:
        Extra area factor used when dimensions are chosen automatically.
    """
    if isinstance(circuit_or_graph, Circuit):
        graph = interaction_graph(circuit_or_graph)
        vertex_list = (
            list(qubits)
            if qubits is not None
            else list(range(circuit_or_graph.num_qubits))
        )
    else:
        graph = circuit_or_graph
        vertex_list = list(qubits) if qubits is not None else list(graph.nodes())

    adj = adjacency(graph)
    sizes = vertex_sizes(graph)
    for vertex in vertex_list:
        if vertex not in adj:
            adj[vertex] = {}
            sizes[vertex] = 1

    if width is None or height is None:
        height, width = grid_dimensions_for(len(vertex_list), slack=slack)
    placement = Placement(width=width, height=height)
    region = GridRegion(0, 0, height, width)
    bisector = Bisector(adj, sizes)
    _embed_recursive(adj, bisector, vertex_list, region, placement, seed, leaf_size)
    placement.validate()
    return placement
