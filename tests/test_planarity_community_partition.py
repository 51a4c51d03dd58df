"""Unit tests for Fig. 4's planarity claims, community detection and graph
partitioning.

Fig. 4 of the paper: a single-level factory's interaction graph is planar,
and so is each round of a multi-level factory, whose modules never
interact; the permutation edges between rounds break planarity, which is
why hierarchical stitching embeds each round's modules on their own.  The
package runs no planarity analysis, so the helpers behind these claims
live here, with networkx as their oracle.
"""

import networkx as nx
import pytest

from repro.graphs import (
    Graph,
    bisect,
    community_centroid,
    community_fragmentation,
    community_of,
    contract,
    count_edge_crossings,
    cut_weight,
    detect_communities,
    heavy_edge_matching,
    interaction_graph,
    kmeans,
    subgraph_for_qubits,
)


# ----------------------------------------------------------------------
# Fig. 4 helpers, on networkx
# ----------------------------------------------------------------------
def to_networkx(graph) -> nx.Graph:
    """``graph`` as a ``networkx.Graph``; a networkx graph is returned as is.

    A :class:`Graph` keeps its node order and edge data, and its edges are
    added in ``Graph.edges`` order, the order in which ``nx.Graph(G)``
    copies a networkx graph.
    """
    if not isinstance(graph, Graph):
        return graph
    converted = nx.Graph()
    converted.add_nodes_from(graph.nodes())
    converted.add_edges_from(graph.edges(data=True))
    return converted


def is_planar(graph) -> bool:
    planar, _embedding = nx.check_planarity(to_networkx(graph), counterexample=False)
    return planar


def planar_embedding_positions(graph):
    """A crossing-free straight-line drawing of a planar graph."""
    positions = nx.planar_layout(to_networkx(graph))
    return {node: (float(x), float(y)) for node, (x, y) in positions.items()}


def round_interaction_graphs(factory):
    """Each round's interaction graph: the round's qubits and the edges of
    its own gates, without the permutation edges to the next round."""
    return [
        interaction_graph(
            factory.round_gates(round_index),
            include_qubits=factory.round_qubits(round_index),
        )
        for round_index in range(1, factory.spec.levels + 1)
    ]


def module_interaction_graphs(factory, round_index):
    """The interaction subgraph of each module of one round."""
    round_graph = round_interaction_graphs(factory)[round_index - 1]
    return [
        subgraph_for_qubits(round_graph, module.all_qubits)
        for module in factory.rounds[round_index - 1]
    ]


def modules_are_disjoint(factory, round_index) -> bool:
    """Whether no edge of a round joins two of its modules."""
    round_graph = round_interaction_graphs(factory)[round_index - 1]
    owner = {
        qubit: module.module_index
        for module in factory.rounds[round_index - 1]
        for qubit in module.all_qubits
    }
    return all(owner.get(a) == owner.get(b) for a, b in round_graph.edges())


def planar_round_fraction(factory) -> float:
    """The fraction of a factory's rounds whose interaction graph is planar."""
    graphs = round_interaction_graphs(factory)
    return sum(1 for graph in graphs if is_planar(graph)) / len(graphs)


class TestPlanarity:
    def test_single_level_interaction_graph_is_planar(self, single_level_k4):
        graph = interaction_graph(single_level_k4.circuit)
        assert is_planar(graph)

    def test_single_level_k8_planar(self, single_level_k8):
        assert is_planar(interaction_graph(single_level_k8.circuit))

    def test_per_round_graphs_are_planar(self, two_level_cap4):
        assert planar_round_fraction(two_level_cap4) == 1.0

    def test_round_graph_count_matches_levels(self, two_level_cap4):
        assert len(round_interaction_graphs(two_level_cap4)) == 2

    def test_modules_within_round_never_interact(self, two_level_cap4):
        assert modules_are_disjoint(two_level_cap4, 1)
        assert modules_are_disjoint(two_level_cap4, 2)

    def test_module_subgraphs_are_planar(self, two_level_cap4):
        for module_graph in module_interaction_graphs(two_level_cap4, 1):
            assert is_planar(module_graph)

    def test_planar_embedding_positions_no_crossings(self, single_level_k4):
        graph = interaction_graph(single_level_k4.circuit)
        positions = planar_embedding_positions(graph)
        assert count_edge_crossings(graph, positions) == 0

    def test_k5_is_not_planar(self):
        assert not is_planar(nx.complete_graph(5))

    def test_permutation_edges_break_planarity(self, two_level_cap4):
        # Fig. 4b against 4c: every round is planar, the whole factory not.
        assert not is_planar(interaction_graph(two_level_cap4.circuit))


class TestCommunityDetection:
    def two_cliques(self):
        graph = nx.Graph()
        for offset in (0, 10):
            for i in range(4):
                for j in range(i + 1, 4):
                    graph.add_edge(offset + i, offset + j, weight=1)
        graph.add_edge(0, 10, weight=1)
        return graph

    def test_detects_two_cliques(self):
        communities = detect_communities(self.two_cliques())
        assert len(communities) == 2
        assert sorted(map(sorted, communities)) == [[0, 1, 2, 3], [10, 11, 12, 13]]

    def test_isolated_vertices_grouped(self):
        graph = self.two_cliques()
        graph.add_node(99)
        communities = detect_communities(graph)
        assert any(99 in community for community in communities)

    def test_max_communities_merges_smallest(self):
        graph = self.two_cliques()
        graph.add_node(99)
        communities = detect_communities(graph, max_communities=2)
        assert len(communities) == 2

    def test_max_communities_below_one_is_rejected(self):
        graph = nx.Graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (6, 7)])
        assert len(detect_communities(graph)) == 3
        for bound in (0, -1):
            with pytest.raises(ValueError, match="max_communities"):
                detect_communities(graph, max_communities=bound)
        assert detect_communities(graph, max_communities=1) == [list(range(8))]

    def test_empty_graph(self):
        assert detect_communities(nx.Graph()) == []

    def test_community_of_inversion(self):
        assignment = community_of([[1, 2], [3]])
        assert assignment == {1: 0, 2: 0, 3: 1}

    def test_community_centroid(self):
        positions = {1: (0.0, 0.0), 2: (2.0, 2.0)}
        assert community_centroid([1, 2], positions) == (1.0, 1.0)

    def test_community_centroid_unplaced(self):
        assert community_centroid([7], {}) == (0.0, 0.0)


class TestKMeans:
    def test_two_well_separated_clusters(self):
        points = [(0.0, 0.0), (0.1, 0.2), (10.0, 10.0), (10.2, 9.9)]
        centroids, assignment = kmeans(points, 2, seed=1)
        assert len(centroids) == 2
        assert assignment[0] == assignment[1]
        assert assignment[2] == assignment[3]
        assert assignment[0] != assignment[2]

    def test_more_clusters_than_points(self):
        centroids, assignment = kmeans([(0.0, 0.0)], 3)
        assert len(centroids) == 1
        assert assignment == [0]

    def test_empty_points(self):
        assert kmeans([], 2) == ([], [])

    def test_invalid_cluster_count(self):
        with pytest.raises(ValueError):
            kmeans([(0.0, 0.0)], 0)

    def test_fragmentation_detects_split_community(self):
        positions = {i: (0.0, float(i)) for i in range(3)}
        positions.update({i: (20.0, float(i)) for i in range(3, 6)})
        centroids, clusters = community_fragmentation(list(range(6)), positions)
        assert len(clusters) == 2

    def test_fragmentation_contiguous_community(self):
        positions = {i: (0.0, float(i)) for i in range(4)}
        centroids, clusters = community_fragmentation(list(range(4)), positions)
        assert len(clusters) == 1


class TestGraphPartitioning:
    def barbell(self):
        return nx.barbell_graph(6, 0)

    def test_heavy_edge_matching_covers_all_vertices(self):
        graph = self.barbell()
        groups = heavy_edge_matching(graph, seed=1)
        flattened = [v for group in groups for v in group]
        assert sorted(flattened) == sorted(graph.nodes())

    def test_contract_preserves_total_size(self):
        graph = self.barbell()
        groups = heavy_edge_matching(graph, seed=1)
        coarse, sizes, membership = contract(graph, groups)
        assert set(sizes) == set(coarse)
        assert sum(sizes[n] for n in coarse) == graph.number_of_nodes()
        assert set(membership) == set(graph.nodes())

    def test_bisect_barbell_cuts_the_bridge(self):
        graph = self.barbell()
        result = bisect(graph, seed=3)
        assert result.cut_weight == 1
        assert abs(len(result.left) - len(result.right)) <= 1

    def test_bisect_balance(self):
        graph = nx.grid_2d_graph(4, 4)
        graph = nx.convert_node_labels_to_integers(graph)
        result = bisect(graph, seed=0)
        assert abs(len(result.left) - len(result.right)) <= 2

    def test_bisect_single_vertex(self):
        graph = nx.Graph()
        graph.add_node(0)
        result = bisect(graph)
        assert result.left == [0]
        assert result.right == []

    def test_cut_weight(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=2)
        graph.add_edge(1, 2, weight=5)
        assert cut_weight(graph, {0}) == 2
        assert cut_weight(graph, {0, 1}) == 5
