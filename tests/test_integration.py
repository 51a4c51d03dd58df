"""End-to-end integration tests exercising the full toolchain.

These tests reproduce, at reduced scale, the qualitative claims of the
paper's evaluation: the claims that must hold regardless of the exact cycle
model of the simulator.
"""

import pytest

from repro.api import evaluate_factory_mapping
from repro.experiments import fig6_correlation, fig9_permutation, fig10_resources


class TestSingleLevelClaims:
    """Single-level factories: the linear baseline is already near optimal."""

    @pytest.fixture(scope="class")
    def sweep(self):
        return fig10_resources.run_single_level(capacities=[4, 8])

    def test_every_method_above_lower_bound(self, sweep):
        for evaluation in sweep.evaluations:
            assert evaluation.latency >= evaluation.critical_latency

    def test_linear_close_to_lower_bound(self, sweep):
        for evaluation in sweep.evaluations:
            if evaluation.method == "linear":
                assert evaluation.latency <= 1.6 * evaluation.critical_latency

    def test_random_is_the_worst_mapping(self):
        random_eval = evaluate_factory_mapping("random", 8, levels=1, seed=0)
        linear_eval = evaluate_factory_mapping("linear", 8, levels=1)
        assert random_eval.volume > linear_eval.volume


class TestTwoLevelClaims:
    """Two-level factories: stitching wins, permutation dominates the baseline."""

    @pytest.fixture(scope="class")
    def sweep(self):
        return fig10_resources.run_two_level(capacities=[16])

    def test_stitching_has_lowest_volume(self, sweep):
        volumes = sweep.series("volume")
        stitching = volumes["hierarchical_stitching"][16]
        for method, series in volumes.items():
            if method == "hierarchical_stitching":
                continue
            assert stitching <= series[16]

    def test_stitching_reduces_volume_over_linear(self, sweep):
        # The paper reports up to 5.64x at capacity 100; at capacity 16 the
        # reduction is smaller but must be clearly above 1.
        assert sweep.volume_reduction(16) > 1.1

    def test_graph_partition_beats_linear_at_capacity_16(self, sweep):
        volumes = sweep.series("volume")
        assert volumes["graph_partition"][16] < volumes["linear"][16]

    def test_two_level_overheads_exceed_single_level(self):
        single = evaluate_factory_mapping("linear", 4, levels=1)
        double = evaluate_factory_mapping("linear", 4, levels=2)
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
