"""Graphs as plain dicts that iterate exactly like networkx.

:class:`Graph` is the program interaction graph's type: an undirected
simple graph stored in networkx's own layout, ``{u: {v: data}}`` with one
``data`` dict shared by both directions of an edge.  Node, neighbour and
edge iteration therefore follow networkx's order by construction, and the
mappers, metrics and partitioners accept either type.  Evaluation never
imports networkx; :func:`to_networkx` converts for the analyses that run
a networkx algorithm (planarity, label propagation).

Graph partitioning (Section VI-B.2) and community detection (Section
VI-B.1) run on an *adjacency*: ``{u: {v: weight}}``, symmetric, with a
self-loop stored once as ``adj[u][u]``.  Each entry point converts the
caller's graph once with :func:`adjacency`; everything after that is dict
and set work.

The heuristics break ties by iteration order, so an adjacency must iterate
nodes and neighbours in the order networkx would.  Three networkx
behaviours are reproduced here:

* :func:`adjacency` keeps the graph's node order and each node's neighbour
  order (insertion order of its ``_adj`` dicts).
* :func:`subgraph_order` is the node order of ``G.subgraph(vertices)``:
  when fewer than half of ``G``'s nodes are kept, networkx iterates the
  set of kept nodes (built by iteration, one node at a time), otherwise
  ``G``'s own order.  :func:`induced_subgraph` is the matching
  ``G.subgraph(vertices).copy()``, whose neighbour order is each edge's
  first appearance in a node-major scan of that order; so is
  :meth:`Graph.subgraph`.
* :func:`weighted_degree` counts a self-loop twice and sums the other
  weights in neighbour order, like ``G.degree(v, weight="weight")``.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    Optional,
    Set,
    Tuple,
)

#: ``{u: {v: weight}}``: a symmetric weighted adjacency in networkx order.
Adjacency = Dict[Hashable, Dict[Hashable, Any]]


def adjacency(graph) -> Adjacency:
    """The adjacency of a :class:`Graph` or an undirected simple networkx graph.

    Edge weights are the ``weight`` attribute, 1 when it is missing.
    Directed graphs and multigraphs raise :class:`TypeError`.
    """
    if graph.is_directed() or graph.is_multigraph():
        raise TypeError("expected an undirected simple graph")
    return {
        u: {v: data.get("weight", 1) for v, data in nbrs.items()}
        for u, nbrs in graph.adj.items()
    }


def subgraph_order(
    adj: Adjacency, vertices: Iterable[Hashable]
) -> Tuple[Iterable, Set]:
    """Node order of networkx's ``G.subgraph(vertices)``, and its node set."""
    kept = {v for v in vertices if v in adj}
    if 2 * len(kept) < len(adj):
        return kept, kept
    return [v for v in adj if v in kept], kept


def induced_subgraph(
    adj: Adjacency, vertices: Iterable[Hashable], copy: Optional[Callable] = None
) -> Adjacency:
    """``G.subgraph(vertices).copy()`` with networkx's node and neighbour order.

    ``copy``, when given, is applied once to each kept edge's value, and
    both directions of the edge share the result.
    """
    order, kept = subgraph_order(adj, vertices)
    sub: Adjacency = {v: {} for v in order}
    for u in order:
        row = sub[u]
        for v, value in adj[u].items():
            if v in kept and v not in row:
                if copy is not None:
                    value = copy(value)
                row[v] = value
                sub[v][u] = value
    return sub


def edges(adj: Adjacency) -> Iterator[Tuple[Hashable, Hashable, Any]]:
    """Each edge once as ``(u, v, weight)``, in ``G.edges(data=...)`` order."""
    seen: Set[Hashable] = set()
    for u, nbrs in adj.items():
        for v, weight in nbrs.items():
            if v not in seen:
                yield u, v, weight
        seen.add(u)


def weighted_degree(nbrs: Dict[Hashable, Any], vertex: Hashable):
    """``G.degree(vertex, weight="weight")`` from the vertex's neighbour dict."""
    return sum(nbrs.values()) + (vertex in nbrs and nbrs[vertex])


class Graph:
    """An undirected simple graph in networkx's layout and iteration order.

    :attr:`adj` is ``{u: {v: data}}``, where both directions of an edge
    share one ``data`` dict, as in ``networkx.Graph``.  Nodes iterate in
    insertion order, each node's neighbours in the order its edges were
    added, and :meth:`edges` yields each edge once from the endpoint
    visited first, so every loop over a :class:`Graph` sees the order it
    would see over the networkx graph built by the same calls.  Only the
    part of the ``networkx.Graph`` interface the package uses is here;
    nodes carry no attributes.
    """

    def __init__(self) -> None:
        self.adj: Dict[Hashable, Dict[Hashable, Dict[str, Any]]] = {}

    def add_node(self, vertex: Hashable) -> None:
        if vertex not in self.adj:
            self.adj[vertex] = {}

    def add_edge(self, u: Hashable, v: Hashable, **data: Any) -> None:
        """Add edge ``u-v``, or update its data; new endpoints are appended."""
        self.add_node(u)
        self.add_node(v)
        edge = self.adj[u].get(v, {})
        edge.update(data)
        self.adj[u][v] = edge
        self.adj[v][u] = edge

    def __contains__(self, vertex: Hashable) -> bool:
        return vertex in self.adj

    def __getitem__(self, vertex: Hashable) -> Dict[Hashable, Dict[str, Any]]:
        return self.adj[vertex]

    def is_directed(self) -> bool:
        return False

    def is_multigraph(self) -> bool:
        return False

    def nodes(self, data: bool = False):
        """The nodes in order; with ``data``, ``(node, {})`` pairs."""
        if data:
            return [(vertex, {}) for vertex in self.adj]
        return self.adj.keys()

    def neighbors(self, vertex: Hashable) -> Iterator[Hashable]:
        return iter(self.adj[vertex])

    def edges(self, data: bool = False) -> Iterator[tuple]:
        """Each edge once, as ``(u, v)`` or with ``data`` ``(u, v, data)``."""
        for u, v, edge in edges(self.adj):
            yield (u, v, edge) if data else (u, v)

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return u in self.adj and v in self.adj[u]

    def degree(self) -> Iterator[Tuple[Hashable, int]]:
        """``(node, degree)`` pairs in node order; a self-loop counts twice."""
        for vertex, nbrs in self.adj.items():
            yield vertex, len(nbrs) + (vertex in nbrs)

    def number_of_nodes(self) -> int:
        return len(self.adj)

    def number_of_edges(self) -> int:
        return sum(1 for _ in edges(self.adj))

    def subgraph(self, vertices: Iterable[Hashable]) -> "Graph":
        """``G.subgraph(vertices).copy()``: an induced copy, never a view.

        Each kept edge gets its own copy of the data dict, as networkx's
        ``copy`` gives it.
        """
        sub = Graph()
        sub.adj = induced_subgraph(self.adj, vertices, copy=dict)
        return sub


def to_networkx(graph):
    """``graph`` as a ``networkx.Graph``; a networkx graph is returned as is.

    A :class:`Graph` keeps its node order and edge data, and its edges
    are added in :meth:`Graph.edges` order, the order in which
    ``networkx.Graph(G)`` copies a networkx graph.
    """
    if not isinstance(graph, Graph):
        return graph
    import networkx as nx

    converted = nx.Graph()
    converted.add_nodes_from(graph.nodes())
    converted.add_edges_from(graph.edges(data=True))
    return converted
