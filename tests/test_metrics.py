"""Unit tests for mapping metrics (repro.graphs.metrics)."""

import random

import networkx as nx
import pytest

from repro.graphs import (
    MappingCostTracker,
    average_edge_length,
    average_edge_spacing,
    average_edge_spacing_reference,
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


def square_graph():
    """Four vertices on a unit square with the two diagonals as edges."""
    graph = nx.Graph()
    graph.add_edge(0, 2)
    graph.add_edge(1, 3)
    positions = {0: (0.0, 0.0), 1: (0.0, 1.0), 2: (1.0, 1.0), 3: (1.0, 0.0)}
    return graph, positions


class TestDistances:
    def test_manhattan(self):
        assert manhattan_distance((0, 0), (2, 3)) == 5

    def test_euclidean(self):
        assert euclidean_distance((0, 0), (3, 4)) == pytest.approx(5.0)

    def test_midpoint(self):
        assert edge_midpoint((0, 0), (2, 4)) == (1.0, 2.0)


class TestEdgeLength:
    def test_total_edge_length_weighted(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=3)
        positions = {0: (0.0, 0.0), 1: (1.0, 1.0)}
        assert total_edge_length(graph, positions) == 6.0
        assert total_edge_length(graph, positions, weighted=False) == 2.0

    def test_average_edge_length(self):
        graph, positions = square_graph()
        assert average_edge_length(graph, positions) == pytest.approx(2.0)

    def test_average_edge_length_empty_graph(self):
        assert average_edge_length(nx.Graph(), {}) == 0.0

    def test_unplaced_endpoint_raises(self):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        with pytest.raises(KeyError):
            count_edge_crossings(graph, {0: (0.0, 0.0)})


class TestEdgeSpacing:
    def test_spacing_of_parallel_edges(self):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        positions = {0: (0.0, 0.0), 1: (0.0, 2.0), 2: (3.0, 0.0), 3: (3.0, 2.0)}
        # Midpoints are (0,1) and (3,1): spacing 3.
        assert average_edge_spacing(graph, positions) == pytest.approx(3.0)

    def test_spacing_needs_two_edges(self):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        assert average_edge_spacing(graph, {0: (0.0, 0.0), 1: (1.0, 0.0)}) == 0.0


class TestCrossings:
    def test_diagonals_cross(self):
        graph, positions = square_graph()
        assert count_edge_crossings(graph, positions) == 1

    def test_shared_endpoint_is_not_a_crossing(self):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        positions = {0: (0.0, 0.0), 1: (1.0, 1.0), 2: (2.0, 0.0)}
        assert count_edge_crossings(graph, positions) == 0

    def test_parallel_edges_do_not_cross(self):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        positions = {0: (0.0, 0.0), 1: (0.0, 5.0), 2: (1.0, 0.0), 3: (1.0, 5.0)}
        assert count_edge_crossings(graph, positions) == 0

    def test_segments_intersect_basic(self):
        assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))
        assert not segments_intersect((0, 0), (1, 0), (2, 0), (3, 0))

    def test_collinear_overlap_counts(self):
        assert segments_intersect((0, 0), (3, 0), (1, 0), (4, 0))

    def test_shared_endpoint_excluded(self):
        assert not segments_intersect((0, 0), (1, 1), (1, 1), (2, 0))


class TestCoincidentPositions:
    """Endpoint exclusion is by graph vertex identity, not coordinates.

    Regression for the old coordinate-based exclusion in
    ``segments_intersect``: edges between four distinct vertices must count
    even when some endpoints coincide in position.
    """

    def test_touching_edges_between_distinct_vertices_count(self):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        # Vertex 2 sits exactly on vertex 1's coordinates; the segments
        # touch at (2.0, 2.0).  No shared qubit => a geometric crossing.
        positions = {
            0: (0.0, 0.0),
            1: (2.0, 2.0),
            2: (2.0, 2.0),
            3: (0.0, 4.0),
        }
        assert count_edge_crossings(graph, positions) == 1
        assert count_edge_crossings_reference(graph, positions) == 1

    def test_proper_crossing_with_coincident_endpoint(self):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        # Vertex 2 coincides with vertex 0 and the segments overlap
        # collinearly between (1,1) and (2,2).
        positions = {
            0: (1.0, 1.0),
            1: (2.0, 2.0),
            2: (1.0, 1.0),
            3: (3.0, 3.0),
        }
        assert count_edge_crossings(graph, positions) == 1
        assert count_edge_crossings_reference(graph, positions) == 1

    def test_shared_vertex_still_excluded_even_when_moved(self):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        positions = {0: (0.0, 0.0), 1: (1.0, 1.0), 2: (2.0, 0.0)}
        assert count_edge_crossings(graph, positions) == 0


def _random_case(trial, rng):
    """A random graph and position map; every third trial is grid-snapped.

    Snapped coordinates produce coincident vertices, collinear overlaps and
    on-segment endpoints — the degenerate cases the bucketed engine must
    agree on with the brute-force oracle.
    """
    n = rng.randrange(5, 40)
    m = rng.randrange(0, min(90, n * (n - 1) // 2))
    graph = nx.gnm_random_graph(n, m, seed=trial)
    if trial % 3 == 0:
        positions = {
            v: (float(rng.randrange(0, 8)), float(rng.randrange(0, 8)))
            for v in graph.nodes()
        }
    else:
        positions = {
            v: (rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0))
            for v in graph.nodes()
        }
    return graph, positions


class TestBucketedParity:
    """The bucketed engine matches the brute-force ``_reference`` oracle."""

    def test_crossings_match_reference_randomized(self):
        rng = random.Random(7)
        for trial in range(40):
            graph, positions = _random_case(trial, rng)
            assert count_edge_crossings(graph, positions) == (
                count_edge_crossings_reference(graph, positions)
            ), f"trial {trial}"

    def test_crossings_match_reference_any_bucket_size(self):
        rng = random.Random(3)
        graph, positions = _random_case(2, rng)
        expected = count_edge_crossings_reference(graph, positions)
        for bucket in (0.5, 1.0, 2.0, 5.0, 50.0):
            assert (
                count_edge_crossings(graph, positions, bucket_size=bucket) == expected
            )

    def test_non_positive_bucket_size_rejected(self):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        positions = {0: (0.0, 0.0), 1: (1.0, 1.0), 2: (0.0, 1.0), 3: (1.0, 0.0)}
        for bucket in (0.0, -1.0):
            with pytest.raises(ValueError):
                count_edge_crossings(graph, positions, bucket_size=bucket)
            with pytest.raises(ValueError):
                MappingCostTracker(graph, positions, bucket_size=bucket)

    def test_spacing_matches_reference_randomized(self):
        rng = random.Random(11)
        for trial in range(20):
            graph, positions = _random_case(trial, rng)
            assert average_edge_spacing(graph, positions) == pytest.approx(
                average_edge_spacing_reference(graph, positions), rel=1e-9, abs=1e-12
            )

    def test_spacing_matches_reference_large_graph(self):
        # >= 64 edges exercises the vectorised block summation.
        graph = nx.gnm_random_graph(40, 200, seed=5)
        rng = random.Random(5)
        positions = {
            v: (rng.uniform(0.0, 30.0), rng.uniform(0.0, 30.0))
            for v in graph.nodes()
        }
        assert average_edge_spacing(graph, positions) == pytest.approx(
            average_edge_spacing_reference(graph, positions), rel=1e-9
        )

    def test_collinear_overlap_parity(self):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        graph.add_edge(4, 5)
        positions = {
            0: (0.0, 0.0),
            1: (0.0, 3.0),
            2: (0.0, 1.0),
            3: (0.0, 4.0),
            4: (0.0, 2.0),
            5: (0.0, 5.0),
        }
        expected = count_edge_crossings_reference(graph, positions)
        assert count_edge_crossings(graph, positions) == expected == 3

    @pytest.mark.parametrize(
        "stem, touch, wall",
        [
            # An endpoint 1e-13 left and right of a segment on column 4.0,
            ((2.0, 0.5), (2.0, 3.9999999999999), ((1.0, 4.0), (3.0, 4.0))),
            ((2.0, 7.5), (2.0, 4.0000000000001), ((1.0, 4.0), (3.0, 4.0))),
            # and above and below one on row 4.0.
            ((0.5, 2.0), (3.9999999999999, 2.0), ((4.0, 1.0), (4.0, 3.0))),
            ((7.5, 2.0), (4.0000000000001, 2.0), ((4.0, 1.0), (4.0, 3.0))),
        ],
    )
    def test_pairs_touching_within_tolerance_are_counted(self, stem, touch, wall):
        # The predicates count a touch within their 1e-12 tolerance, so the
        # grid must test the pair although at bucket size 2 the segments'
        # exact boxes may lie on either side of the bucket boundary at 4.0.
        graph = nx.Graph([(0, 1), (2, 3)])
        positions = {0: stem, 1: touch, 2: wall[0], 3: wall[1]}
        assert count_edge_crossings_reference(graph, positions) == 1
        assert count_edge_crossings(graph, positions) == 1
        assert count_edge_crossings(graph, positions, bucket_size=2.0) == 1

    def test_pair_collinear_within_tolerance_but_apart_does_not_cross(self):
        # Each segment has an endpoint collinear with the other within the
        # 1e-12 tolerance, but their boxes are 1e-9 apart: no crossing.
        graph = nx.Graph([(0, 1), (2, 3)])
        positions = {
            0: (2.999999999, 1.0),
            1: (2.5, 0.5),
            2: (3.5, 1.5),
            3: (3.0, 1.000000001),
        }
        assert count_edge_crossings_reference(graph, positions) == 0
        assert count_edge_crossings(graph, positions) == 0

    def test_self_loops_are_ignored(self):
        graph = nx.Graph()
        graph.add_edge(0, 0)
        graph.add_edge(1, 2)
        positions = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (1.0, 5.0)}
        assert count_edge_crossings(graph, positions) == 0
        assert count_edge_crossings_reference(graph, positions) == 0


class TestMappingCostTracker:
    """The incremental tracker equals a from-scratch recompute at every step."""

    def _assert_matches_recompute(self, tracker, graph, positions):
        metrics = mapping_metrics(graph, positions)
        tracked = tracker.metrics()
        assert tracked["edge_crossings"] == metrics["edge_crossings"]
        assert tracked["average_edge_length"] == pytest.approx(
            metrics["average_edge_length"], rel=1e-9, abs=1e-12
        )
        assert tracked["average_edge_spacing"] == pytest.approx(
            metrics["average_edge_spacing"], rel=1e-9, abs=1e-12
        )
        assert tracker.cost() == pytest.approx(
            mapping_cost(graph, positions), rel=1e-9
        )

    def test_matches_recompute_over_move_sequence(self):
        rng = random.Random(13)
        for trial in range(5):
            graph = nx.gnm_random_graph(18, 40, seed=trial)
            positions = {
                v: (float(rng.randrange(0, 10)), float(rng.randrange(0, 10)))
                for v in graph.nodes()
            }
            tracker = MappingCostTracker(graph, positions)
            nodes = list(graph.nodes())
            for _step in range(50):
                vertex = rng.choice(nodes)
                new = (float(rng.randrange(0, 10)), float(rng.randrange(0, 10)))
                positions[vertex] = new
                tracker.apply({vertex: new})
                self._assert_matches_recompute(tracker, graph, positions)

    def test_matches_recompute_vectorised_path(self):
        # >= 64 edges: the recomputed spacing takes numpy block summation.
        rng = random.Random(17)
        graph = nx.gnm_random_graph(50, 120, seed=0)
        positions = {
            v: (float(rng.randrange(0, 12)), float(rng.randrange(0, 12)))
            for v in graph.nodes()
        }
        tracker = MappingCostTracker(graph, positions)
        nodes = list(graph.nodes())
        for _step in range(40):
            vertex = rng.choice(nodes)
            new = (float(rng.randrange(0, 12)), float(rng.randrange(0, 12)))
            positions[vertex] = new
            tracker.apply({vertex: new})
        self._assert_matches_recompute(tracker, graph, positions)

    def test_swap_updates_both_vertices(self):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        positions = {0: (0.0, 0.0), 1: (0.0, 1.0), 2: (1.0, 0.0), 3: (1.0, 1.0)}
        tracker = MappingCostTracker(graph, positions)
        updates = {1: (1.0, 1.0), 3: (0.0, 1.0)}
        tracker.apply(updates)
        positions.update(updates)
        self._assert_matches_recompute(tracker, graph, positions)

    def test_revert_last_restores_state_exactly(self):
        rng = random.Random(31)
        graph = nx.gnm_random_graph(20, 45, seed=31)
        positions = {
            v: (float(rng.randrange(0, 10)), float(rng.randrange(0, 10)))
            for v in graph.nodes()
        }
        tracker = MappingCostTracker(graph, positions)
        nodes = list(graph.nodes())
        for _step in range(30):
            crossings = tracker.crossings
            spacing = tracker.spacing_sum
            length = tracker.total_edge_length
            cost = tracker.cost()
            vertex = rng.choice(nodes)
            tracker.apply(
                {vertex: (float(rng.randrange(0, 10)), float(rng.randrange(0, 10)))}
            )
            tracker.revert_last()
            # Bit-exact restore (snapshots, not arithmetic inverses).
            assert tracker.crossings == crossings
            assert tracker.spacing_sum == spacing
            assert tracker.total_edge_length == length
            assert tracker.cost() == cost
            self._assert_matches_recompute(tracker, graph, positions)

    def test_revert_last_is_one_shot(self):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        tracker = MappingCostTracker(graph, {0: (0.0, 0.0), 1: (1.0, 0.0)})
        tracker.apply({0: (2.0, 2.0)})
        tracker.revert_last()
        with pytest.raises(RuntimeError):
            tracker.revert_last()

    def test_revert_after_isolated_move_restores_position(self):
        graph = nx.Graph()
        graph.add_node(0)
        graph.add_edge(1, 2)
        tracker = MappingCostTracker(
            graph, {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0)}
        )
        tracker.apply({0: (5.0, 5.0)})
        tracker.revert_last()
        assert tracker.position(0) == (0.0, 0.0)

    def test_inverse_apply_reverts(self):
        graph = nx.gnm_random_graph(12, 25, seed=4)
        rng = random.Random(4)
        positions = {
            v: (float(rng.randrange(0, 8)), float(rng.randrange(0, 8)))
            for v in graph.nodes()
        }
        tracker = MappingCostTracker(graph, positions)
        crossings_before = tracker.crossings
        cost_before = tracker.cost()
        old = tracker.position(3)
        delta = tracker.apply({3: (7.0, 7.0)})
        delta_back = tracker.apply({3: old})
        assert tracker.crossings == crossings_before
        assert tracker.cost() == pytest.approx(cost_before, rel=1e-12)
        assert delta + delta_back == pytest.approx(0.0, abs=1e-9)

    def test_delta_equals_cost_difference(self):
        graph = nx.gnm_random_graph(15, 30, seed=9)
        rng = random.Random(9)
        positions = {
            v: (float(rng.randrange(0, 9)), float(rng.randrange(0, 9)))
            for v in graph.nodes()
        }
        tracker = MappingCostTracker(graph, positions)
        before = tracker.cost()
        delta = tracker.apply({0: (8.0, 8.0)})
        assert delta == pytest.approx(tracker.cost() - before, rel=1e-12)

    def test_isolated_vertex_moves_freely(self):
        graph = nx.Graph()
        graph.add_node(0)
        graph.add_edge(1, 2)
        positions = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0)}
        tracker = MappingCostTracker(graph, positions)
        assert tracker.apply({0: (5.0, 5.0)}) == 0.0
        assert tracker.position(0) == (5.0, 5.0)

    def test_unknown_vertex_ignored(self):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        positions = {0: (0.0, 0.0), 1: (1.0, 0.0)}
        tracker = MappingCostTracker(graph, positions)
        assert tracker.apply({99: (3.0, 3.0)}) == 0.0

    def test_unplaced_endpoint_raises(self):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        with pytest.raises(KeyError):
            MappingCostTracker(graph, {0: (0.0, 0.0)})

    def test_weighted_length_tracked_through_moves(self):
        rng = random.Random(21)
        graph = nx.gnm_random_graph(14, 30, seed=21)
        for a, b in graph.edges():
            graph[a][b]["weight"] = rng.randrange(1, 5)
        positions = {
            v: (float(rng.randrange(0, 9)), float(rng.randrange(0, 9)))
            for v in graph.nodes()
        }
        tracker = MappingCostTracker(graph, positions)
        nodes = list(graph.nodes())
        for _step in range(40):
            vertex = rng.choice(nodes)
            new = (float(rng.randrange(0, 9)), float(rng.randrange(0, 9)))
            positions[vertex] = new
            tracker.apply({vertex: new})
            assert tracker.total_weighted_length == pytest.approx(
                total_edge_length(graph, positions, weighted=True), rel=1e-9
            )

    def test_self_loop_graph_matches_mapping_cost(self):
        # Self-loops must be ignored consistently by every metric, so the
        # tracker's cost stays identical to mapping_cost on loopy graphs.
        graph = nx.Graph()
        graph.add_edge(0, 0)
        graph.add_edge(1, 2)
        graph.add_edge(3, 4)
        positions = {
            0: (0.0, 0.0),
            1: (1.0, 0.0),
            2: (1.0, 3.0),
            3: (2.0, 0.0),
            4: (2.0, 3.0),
        }
        tracker = MappingCostTracker(graph, positions)
        self._assert_matches_recompute(tracker, graph, positions)
        positions[0] = (5.0, 5.0)
        tracker.apply({0: (5.0, 5.0)})
        self._assert_matches_recompute(tracker, graph, positions)


class TestCostAndCorrelation:
    def test_mapping_metrics_keys(self):
        graph, positions = square_graph()
        metrics = mapping_metrics(graph, positions)
        assert set(metrics) == {
            "edge_crossings",
            "average_edge_length",
            "average_edge_spacing",
        }

    def test_mapping_cost_penalises_crossings(self):
        graph, crossing_positions = square_graph()
        # Re-draw the same graph without a crossing.
        flat_positions = {0: (0.0, 0.0), 2: (0.0, 1.0), 1: (1.0, 0.0), 3: (1.0, 1.0)}
        assert mapping_cost(graph, crossing_positions) > mapping_cost(
            graph, flat_positions
        )

    def test_pearson_perfect_correlation(self):
        assert pearson_correlation([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert pearson_correlation([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)

    def test_pearson_zero_variance(self):
        assert pearson_correlation([1, 1, 1], [2, 4, 6]) == 0.0

    def test_pearson_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson_correlation([1, 2], [1, 2, 3])

    def test_pearson_tiny_sample(self):
        assert pearson_correlation([1], [2]) == 0.0
