"""Unit tests for the analysis layer (volume, correlation, sweeps)."""

import pytest

from repro.analysis import (
    MAPPING_METHODS,
    best_volume_by_method,
    collect_samples,
    correlation_study,
    evaluate_mapping,
    format_sweep_table,
    mapping_area,
    occupied_bounding_box,
)
from repro.api import EvaluationRequest, Pipeline, SweepExecutor, SweepPlan
from repro.mapping import Placement
from repro.routing import SimulatorConfig


@pytest.fixture(scope="module")
def pipeline():
    """One pipeline for the module, so repeated configurations build once."""
    return Pipeline()


@pytest.fixture(scope="module")
def executor():
    """One serial executor for the module's sweeps (its pipeline persists)."""
    return SweepExecutor()


def run_grid(executor, methods, capacities, **grid):
    return executor.run(SweepPlan.from_grid(methods, capacities, **grid)).evaluations


class TestVolumeAccounting:
    def test_bounding_box_empty(self):
        box = occupied_bounding_box(Placement(width=5, height=5))
        assert box["area"] == 0

    def test_bounding_box_tight(self):
        placement = Placement(width=10, height=10, positions={0: (2, 3), 1: (4, 7)})
        box = occupied_bounding_box(placement)
        assert box["height"] == 3
        assert box["width"] == 5
        assert box["area"] == 15

    def test_mapping_area_ignores_unused_grid(self):
        placement = Placement(width=100, height=100, positions={0: (0, 0), 1: (1, 1)})
        assert mapping_area(placement) == 4

    def test_evaluate_mapping(self, single_level_k4, k4_linear_placement):
        result = evaluate_mapping(single_level_k4.circuit, k4_linear_placement)
        assert result.latency > 0
        assert result.area == mapping_area(k4_linear_placement)
        assert result.volume == result.latency * result.area


class TestCorrelationStudy:
    def test_collect_samples_count(self, single_level_k4):
        samples = collect_samples(single_level_k4.circuit, num_mappings=5, seed=0)
        assert len(samples) == 5
        assert all(sample.latency > 0 for sample in samples)

    def test_samples_are_distinct(self, single_level_k4):
        samples = collect_samples(single_level_k4.circuit, num_mappings=5, seed=0)
        assert len({sample.edge_crossings for sample in samples}) > 1

    def test_correlation_study_r_values_in_range(self, single_level_k4):
        study = correlation_study(single_level_k4.circuit, num_mappings=8, seed=1)
        for r_value in study.as_dict().values():
            assert -1.0 <= r_value <= 1.0

    def test_correlation_study_deterministic(self, single_level_k4):
        first = correlation_study(single_level_k4.circuit, num_mappings=5, seed=3)
        second = correlation_study(single_level_k4.circuit, num_mappings=5, seed=3)
        assert first.as_dict() == second.as_dict()


class TestFactoryEvaluation:
    def test_unknown_method_rejected(self, pipeline):
        with pytest.raises(ValueError):
            pipeline.evaluate(EvaluationRequest("bogus", 4))

    @pytest.mark.parametrize("method", ["random", "linear", "graph_partition"])
    def test_single_level_methods(self, pipeline, method):
        evaluation = pipeline.evaluate(EvaluationRequest(method, 4, levels=1, seed=0))
        assert evaluation.latency >= evaluation.critical_latency
        assert evaluation.volume == evaluation.latency * evaluation.area
        assert evaluation.method == method

    def test_volume_over_critical_at_least_one(self, pipeline):
        evaluation = pipeline.evaluate(EvaluationRequest("linear", 4, levels=1))
        assert evaluation.volume_over_critical >= 1.0

    def test_hierarchical_stitching_two_level(self, pipeline):
        evaluation = pipeline.evaluate(
            EvaluationRequest("hierarchical_stitching", 4, levels=2)
        )
        assert evaluation.latency >= evaluation.critical_latency
        assert evaluation.area > 0

    def test_reuse_flag_changes_result(self, pipeline):
        no_reuse = pipeline.evaluate(EvaluationRequest("linear", 4, levels=2))
        reuse = pipeline.evaluate(EvaluationRequest("linear", 4, levels=2, reuse=True))
        assert reuse.area <= no_reuse.area

    def test_sim_config_propagates(self, pipeline):
        fast = pipeline.evaluate(
            EvaluationRequest(
                "linear", 4, levels=1, sim_config=SimulatorConfig(max_candidates=8)
            )
        )
        strict = pipeline.evaluate(
            EvaluationRequest(
                "linear", 4, levels=1, sim_config=SimulatorConfig(max_candidates=1)
            )
        )
        assert fast.latency <= strict.latency


class TestSweeps:
    def test_mapping_methods_registry(self):
        assert "hierarchical_stitching" in MAPPING_METHODS
        assert "linear" in MAPPING_METHODS

    def test_sweep_shape(self, executor):
        results = run_grid(executor, ["linear", "graph_partition"], [2, 4], levels=1)
        assert len(results) == 4
        assert {r.capacity for r in results} == {2, 4}

    def test_best_volume_by_method_picks_minimum(self, executor):
        results = run_grid(executor, ["linear"], [4], levels=2, reuse=(False, True))
        best = best_volume_by_method(results)
        assert best["linear"][4].volume == min(r.volume for r in results)

    def test_format_sweep_table(self, executor):
        results = run_grid(executor, ["linear"], [2, 4], levels=1)
        table = format_sweep_table(results, value="volume")
        assert "K=2" in table and "K=4" in table
        assert "Line" in table

    def test_format_sweep_table_rejects_bad_field(self, executor):
        results = run_grid(executor, ["linear"], [2], levels=1)
        with pytest.raises(ValueError):
            format_sweep_table(results, value="bogus")

    def test_linear_single_level_close_to_bound(self, pipeline):
        evaluation = pipeline.evaluate(EvaluationRequest("linear", 8, levels=1))
        # The hand layout should stay within a small factor of the bound.
        assert evaluation.volume_over_critical < 3.0
