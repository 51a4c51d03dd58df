"""Interaction-graph construction, metrics, communities, partitioning."""

from .adjacency import Graph
from .community import (
    community_centroid,
    community_fragmentation,
    community_of,
    detect_communities,
    kmeans,
)
from .interaction import (
    degree_statistics,
    interaction_edges,
    interaction_graph,
    subgraph_for_qubits,
)
from .metrics import (
    MappingCostTracker,
    average_edge_length,
    average_edge_spacing,
    average_edge_spacing_reference,
    combine_metric_cost,
    count_edge_crossings,
    count_edge_crossings_reference,
    edge_midpoint,
    euclidean_distance,
    manhattan_distance,
    mapping_cost,
    mapping_metrics,
    pearson_correlation,
    segments_intersect,
    total_edge_length,
)
from .partition import (
    Bisection,
    bisect,
    contract,
    cut_weight,
    heavy_edge_matching,
)

__all__ = [
    "Graph",
    "community_centroid",
    "community_fragmentation",
    "community_of",
    "detect_communities",
    "kmeans",
    "degree_statistics",
    "interaction_edges",
    "interaction_graph",
    "subgraph_for_qubits",
    "MappingCostTracker",
    "average_edge_length",
    "average_edge_spacing",
    "average_edge_spacing_reference",
    "combine_metric_cost",
    "count_edge_crossings",
    "count_edge_crossings_reference",
    "edge_midpoint",
    "euclidean_distance",
    "manhattan_distance",
    "mapping_cost",
    "mapping_metrics",
    "pearson_correlation",
    "segments_intersect",
    "total_edge_length",
    "Bisection",
    "bisect",
    "contract",
    "cut_weight",
    "heavy_edge_matching",
]
