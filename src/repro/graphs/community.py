"""Community detection and clustering utilities for interaction graphs.

Section VI-B.1 of the paper uses community structure in two ways:

* the force-directed annealer alternates between local force moves and
  higher-level *community* moves — repulsing distinct communities away from
  each other or pulling a fragmented community back together — to escape
  local minima;
* the KMeans clustering algorithm is used to locate the spatial centroids of
  the clusters a community has broken into, so that an attraction force of
  the right magnitude can rejoin them.

This module provides community detection (Clauset-Newman-Moore greedy
modularity on a plain adjacency, merge for merge the same as networkx's
``greedy_modularity_communities``) plus a small dependency-free KMeans
implementation operating on 2-D placement coordinates.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .adjacency import (
    Adjacency,
    adjacency,
    edges,
    subgraph_order,
    to_networkx,
    weighted_degree,
)

Position = Tuple[float, float]


def detect_communities(
    graph, max_communities: Optional[int] = None, seed: int = 0
) -> List[List[int]]:
    """Partition the graph's vertices into communities.

    Uses greedy modularity maximisation (Clauset-Newman-Moore, one of the
    classic approaches cited in the paper's Section VI-B.1 reference list),
    with networkx's merge order and community order.  Isolated vertices are
    grouped into their own trailing community.  If the edges' total weight
    is zero, modularity is undefined and the non-isolated vertices are
    grouped by networkx's label propagation instead; that branch alone
    imports networkx, and converts a :class:`~repro.graphs.adjacency.Graph`
    first.  If ``max_communities`` is given, the smallest communities are
    merged until the bound is met.  Directed graphs and multigraphs raise
    :class:`TypeError`.
    """
    adj = adjacency(graph)
    if not adj:
        return []
    connected_nodes = [node for node, nbrs in adj.items() if nbrs]
    isolated = [node for node, nbrs in adj.items() if not nbrs]

    communities: List[List[int]] = []
    if connected_nodes:
        # networkx ran on the view ``graph.subgraph(connected_nodes)``: its
        # node order, and each node's full neighbour dict.
        order, _ = subgraph_order(adj, connected_nodes)
        try:
            communities = _greedy_modularity({node: adj[node] for node in order})
        except ZeroDivisionError:
            import networkx as nx

            detected = nx.community.label_propagation_communities(
                to_networkx(graph).subgraph(connected_nodes)
            )
            communities = [sorted(c) for c in detected]
    if isolated:
        communities.append(sorted(isolated))

    if max_communities is not None and len(communities) > max_communities:
        communities.sort(key=len, reverse=True)
        kept = communities[: max_communities - 1]
        merged = sorted(
            q for community in communities[max_communities - 1 :] for q in community
        )
        kept.append(merged)
        communities = kept
    return communities


def _greedy_modularity(core: Adjacency) -> List[List[int]]:
    """Clauset-Newman-Moore merges on a graph without isolated vertices.

    networkx keeps one heap per row of the ``dq`` matrix plus a heap of the
    row maxima, and merges the pair with the smallest ``(-dq, (u, v))``
    among them, which is that pair over the whole matrix.  The key is a
    total order, so a single heap over every entry, skipping entries whose
    row or value has since changed, pops the same pairs in the same order.
    Merging stops before the first pair with ``dq < 0``.  The float
    expressions are networkx's at resolution 1, where its in- and
    out-degree fractions ``a`` and ``b`` are one dict.  Raises
    :class:`ZeroDivisionError` when the total edge weight is zero.
    """
    degrees = {u: weighted_degree(nbrs, u) for u, nbrs in core.items()}
    m = sum(degrees.values()) / 2
    q0 = 1 / m
    a = {u: deg * q0 * 0.5 for u, deg in degrees.items()}
    dq: Dict[int, Dict[int, float]] = {u: {} for u in core}
    for u, v, wt in edges(core):
        if u != v:
            dq[u][v] = dq[v][u] = 0.0 + wt
    for u, row in dq.items():
        for v, wt in row.items():
            row[v] = q0 * wt - (a[u] * a[v] + a[u] * a[v])
    heap = [(-value, u, v) for u, row in dq.items() for v, value in row.items()]
    heapq.heapify(heap)

    # Keyed by the surviving vertex, in core order: the final stable sort by
    # size breaks ties in this order.
    communities = {u: [u] for u in core}
    while len(communities) > 1 and heap:
        negdq, u, v = heapq.heappop(heap)
        row_u = dq.get(u)
        if row_u is None or row_u.get(v) != -negdq:
            continue  # stale: u was merged away or dq[u][v] changed
        if -negdq < 0:
            break
        del dq[u]
        row_v = dq[v]
        for w in row_u.keys() | row_v.keys():
            if w == u or w == v:
                continue
            if w in row_u and w in row_v:
                value = row_v[w] + row_u[w]
            elif w in row_v:
                value = row_v[w] - (a[u] * a[w] + a[w] * a[u])
            else:
                value = row_u[w] - (a[v] * a[w] + a[w] * a[v])
            row_v[w] = dq[w][v] = value
            heapq.heappush(heap, (-value, v, w))
            heapq.heappush(heap, (-value, w, v))
        for w in row_u:
            del dq[w][u]
        a[v] += a[u]
        communities[v].extend(communities.pop(u))
    return [sorted(c) for c in sorted(communities.values(), key=len, reverse=True)]


def community_of(communities: Sequence[Sequence[int]]) -> Dict[int, int]:
    """Invert a community list into a ``{vertex: community index}`` map."""
    assignment: Dict[int, int] = {}
    for index, community in enumerate(communities):
        for vertex in community:
            assignment[vertex] = index
    return assignment


def community_centroid(
    community: Sequence[int], positions: Mapping[int, Position]
) -> Position:
    """Spatial centroid of the placed vertices of one community."""
    placed = [positions[v] for v in community if v in positions]
    if not placed:
        return (0.0, 0.0)
    return (
        sum(p[0] for p in placed) / len(placed),
        sum(p[1] for p in placed) / len(placed),
    )


def kmeans(
    points: Sequence[Position],
    num_clusters: int,
    max_iterations: int = 50,
    seed: int = 0,
) -> Tuple[List[Position], List[int]]:
    """Small 2-D KMeans used to find cluster centroids within a community.

    Returns ``(centroids, assignment)`` where ``assignment[i]`` is the
    cluster index of ``points[i]``.  Initialisation follows the kmeans++
    heuristic (choose each next seed with probability proportional to the
    squared distance from the nearest existing seed).
    """
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
    if not points:
        return [], []
    num_clusters = min(num_clusters, len(points))
    rng = random.Random(seed)

    # kmeans++ seeding.
    centroids: List[Position] = [points[rng.randrange(len(points))]]
    while len(centroids) < num_clusters:
        distances = [
            min((p[0] - c[0]) ** 2 + (p[1] - c[1]) ** 2 for c in centroids)
            for p in points
        ]
        total = sum(distances)
        if total <= 0:
            centroids.append(points[rng.randrange(len(points))])
            continue
        threshold = rng.random() * total
        cumulative = 0.0
        for point, distance in zip(points, distances):
            cumulative += distance
            if cumulative >= threshold:
                centroids.append(point)
                break

    assignment = [0] * len(points)
    for _ in range(max_iterations):
        changed = False
        for index, point in enumerate(points):
            best = min(
                range(len(centroids)),
                key=lambda c: (point[0] - centroids[c][0]) ** 2
                + (point[1] - centroids[c][1]) ** 2,
            )
            if best != assignment[index]:
                assignment[index] = best
                changed = True
        new_centroids: List[Position] = []
        for cluster in range(len(centroids)):
            members = [
                points[i] for i in range(len(points)) if assignment[i] == cluster
            ]
            if members:
                new_centroids.append(
                    (
                        sum(p[0] for p in members) / len(members),
                        sum(p[1] for p in members) / len(members),
                    )
                )
            else:
                new_centroids.append(centroids[cluster])
        centroids = new_centroids
        if not changed:
            break
    return centroids, assignment


def community_fragmentation(
    community: Sequence[int],
    positions: Mapping[int, Position],
    cluster_gap: float = 3.0,
    seed: int = 0,
) -> Tuple[List[Position], List[List[int]]]:
    """Detect whether a community has fragmented into spatial clusters.

    Runs KMeans with ``k = 2`` and reports the clusters only if their
    centroids are more than ``cluster_gap`` apart — otherwise the community is
    considered contiguous and a single cluster is returned.  The force-directed
    annealer uses the centroids to aim its community-joining attraction force.
    """
    placed = [v for v in community if v in positions]
    if len(placed) < 2:
        return (
            [community_centroid(community, positions)],
            [list(community)],
        )
    points = [positions[v] for v in placed]
    centroids, assignment = kmeans(points, num_clusters=2, seed=seed)
    if len(centroids) < 2:
        return [centroids[0]], [list(placed)]
    gap = math.hypot(
        centroids[0][0] - centroids[1][0], centroids[0][1] - centroids[1][1]
    )
    if gap <= cluster_gap:
        return [community_centroid(placed, positions)], [list(placed)]
    clusters: List[List[int]] = [[], []]
    for vertex, cluster in zip(placed, assignment):
        clusters[cluster].append(vertex)
    clusters = [c for c in clusters if c]
    return centroids[: len(clusters)], clusters
