"""End-to-end integration tests exercising the full toolchain.

These tests reproduce, at reduced scale, the qualitative claims of the
paper's evaluation: the claims that must hold regardless of the exact cycle
model of the simulator.
"""

import pytest

from repro.api import EvaluationRequest, Pipeline
from repro.experiments import (
    fig6_correlation,
    fig7_scaling,
    fig9_permutation,
    fig9_reuse,
    fig10_resources,
    table1_volumes,
)


class TestSingleLevelClaims:
    """Single-level factories: the linear baseline is already near optimal."""

    @pytest.fixture(scope="class")
    def fig10(self):
        return fig10_resources.run_single_level(capacities=[4, 8])

    def test_every_method_above_lower_bound(self, fig10):
        for evaluation in fig10.evaluations:
            assert evaluation.latency >= evaluation.critical_latency

    def test_linear_close_to_lower_bound(self, fig10):
        for evaluation in fig10.evaluations:
            if evaluation.method == "linear":
                assert evaluation.latency <= 1.6 * evaluation.critical_latency

    def test_random_is_the_worst_mapping(self):
        pipeline = Pipeline()
        random_eval = pipeline.evaluate(EvaluationRequest("random", 8, seed=0))
        linear_eval = pipeline.evaluate(EvaluationRequest("linear", 8))
        assert random_eval.volume > linear_eval.volume

    def test_linear_within_1_3x_of_the_best_mapper(self, fig10):
        volumes = fig10.series("volume")
        for capacity in volumes["linear"]:
            best = min(series[capacity] for series in volumes.values())
            assert volumes["linear"][capacity] <= 1.3 * best

    def test_resources_grow_with_capacity(self, fig10):
        volumes = fig10.series("volume")
        areas = fig10.series("area")
        for method in volumes:
            assert volumes[method][8] > volumes[method][4]
            assert areas[method][8] > areas[method][4]


class TestTwoLevelClaims:
    """Two-level factories: stitching wins, permutation dominates the baseline."""

    @pytest.fixture(scope="class")
    def fig10(self):
        return fig10_resources.run_two_level(capacities=[16])

    def test_stitching_has_lowest_volume(self, fig10):
        volumes = fig10.series("volume")
        stitching = volumes["hierarchical_stitching"][16]
        for method, series in volumes.items():
            if method == "hierarchical_stitching":
                continue
            assert stitching <= series[16]

    def test_stitching_reduces_volume_over_linear(self, fig10):
        # The paper reports up to 5.64x at capacity 100; at capacity 16 the
        # reduction is smaller but must be clearly above 1.
        assert fig10.volume_reduction(16) > 1.2

    def test_graph_partition_beats_linear_at_capacity_16(self, fig10):
        volumes = fig10.series("volume")
        assert volumes["graph_partition"][16] < volumes["linear"][16]

    def test_two_level_overheads_exceed_single_level(self):
        pipeline = Pipeline()
        single = pipeline.evaluate(EvaluationRequest("linear", 4, levels=1))
        double = pipeline.evaluate(EvaluationRequest("linear", 4, levels=2))
        assert double.volume > single.volume
        assert double.volume_over_critical >= single.volume_over_critical


class TestCorrelationClaims:
    """Fig. 6: crossings correlate positively with latency and dominate."""

    @pytest.fixture(scope="class")
    def study(self):
        return fig6_correlation.run(capacity=8, num_mappings=30, seed=0)

    def test_crossings_positive_correlation(self, study):
        assert study.measured()["edge_crossings_r"] > 0.15

    def test_length_positive_correlation(self, study):
        assert study.measured()["edge_length_r"] > 0.0

    def test_crossings_strongest_predictor(self, study):
        measured = study.measured()
        assert measured["edge_crossings_r"] >= measured["edge_length_r"]


class TestPermutationClaims:
    """Fig. 9c/9d: annealed intermediate hops reduce permutation latency."""

    @pytest.fixture(scope="class")
    def result(self):
        return fig9_permutation.run(capacities=[16], seed=0)

    def test_annealed_midpoint_not_worse_than_no_hop(self, result):
        table = result.by_mode()
        assert table["annealed_midpoint"][16] <= table["none"][16] * 1.05

    def test_all_modes_positive_latency(self, result):
        for measurement in result.measurements:
            assert measurement.latency > 0

    def test_random_hops_are_not_the_best_policy(self, result):
        # Purely random Valiant hops lengthen braids.
        table = result.by_mode()
        best = min(table["annealed_midpoint"][16], table["none"][16])
        assert table["random"][16] >= 0.95 * best


class TestScalingClaims:
    """Fig. 7: FD and GP near the bound at one level, the gap widens at two."""

    def test_single_level_within_2_5x_of_the_bound(self):
        series = fig7_scaling.run_single_level(capacities=[2, 4, 8]).series()
        for method in ("force_directed", "graph_partition"):
            for capacity, latency in series[method].items():
                bound = series["lower_bound"][capacity]
                assert bound <= latency <= 2.5 * bound

    def test_two_level_gap_does_not_shrink(self):
        series = fig7_scaling.run_two_level(capacities=[4, 16]).series()
        bound = series["lower_bound"]
        for method in ("force_directed", "graph_partition"):
            small_gap = series[method][4] / bound[4]
            large_gap = series[method][16] / bound[16]
            assert large_gap >= 1.0
            assert large_gap >= 0.8 * small_gap


class TestReuseClaims:
    """Fig. 9a/9b: reuse costs the linear mapping little volume."""

    @pytest.fixture(scope="class")
    def by_method(self):
        return fig9_reuse.run(capacities=[4]).by_method()

    def test_linear_reuse_volume_within_1_15x(self, by_method):
        for comparison in by_method["linear"].values():
            assert comparison.volume_reuse <= comparison.volume_no_reuse * 1.15

    def test_differentials_in_the_plausible_band(self, by_method):
        for comparisons in by_method.values():
            for comparison in comparisons.values():
                assert -0.6 <= comparison.differential <= 0.6


class TestVolumeTableClaims:
    """Table I: Random worst at one level, HS lowest at two, all above Critical."""

    def test_level1_random_worst_and_every_row_above_critical(self):
        volumes = table1_volumes.run(levels=1, capacities=[2, 4]).volumes
        rows = ("linear_no_reuse", "force_directed", "graph_partition")
        for capacity in (2, 4):
            critical = volumes["critical"][capacity]
            for row in ("random",) + rows:
                assert volumes[row][capacity] >= 0.99 * critical
            worst_other = max(volumes[row][capacity] for row in rows)
            assert volumes["random"][capacity] >= 0.9 * worst_other

    def test_level2_stitching_lowest_and_above_critical(self):
        volumes = table1_volumes.run(levels=2, capacities=[16]).volumes
        stitching = volumes["hierarchical_stitching"][16]
        assert stitching <= volumes["linear_no_reuse"][16]
        assert stitching <= volumes["graph_partition"][16]
        assert stitching >= 0.99 * volumes["critical"][16]
