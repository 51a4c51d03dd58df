"""Weighted graphs as plain dicts that iterate exactly like networkx.

Graph partitioning (Section VI-B.2) and community detection (Section
VI-B.1) run on an *adjacency*: ``{u: {v: weight}}``, symmetric, with a
self-loop stored once as ``adj[u][u]``.  Each entry point converts the
caller's networkx graph once with :func:`adjacency`; everything after that
is dict and set work.

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
  first appearance in a node-major scan of that order.
* :func:`weighted_degree` counts a self-loop twice and sums the other
  weights in neighbour order, like ``G.degree(v, weight="weight")``.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Iterator, Set, Tuple

#: ``{u: {v: weight}}``: a symmetric weighted adjacency in networkx order.
Adjacency = Dict[Hashable, Dict[Hashable, Any]]


def adjacency(graph) -> Adjacency:
    """The adjacency of an undirected simple networkx graph.

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


def induced_subgraph(adj: Adjacency, vertices: Iterable[Hashable]) -> Adjacency:
    """``G.subgraph(vertices).copy()`` with networkx's node and neighbour order."""
    order, kept = subgraph_order(adj, vertices)
    sub: Adjacency = {v: {} for v in order}
    for u in order:
        row = sub[u]
        for v, weight in adj[u].items():
            if v in kept:
                row[v] = weight
                sub[v][u] = weight
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
