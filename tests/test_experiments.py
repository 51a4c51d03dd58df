"""Tests for the experiment modules (one per paper figure/table) and the CLI."""

import pytest

from repro.api import (
    Pipeline,
    RequestError,
    available_experiments,
    get_experiment,
    run_experiment,
)
from repro.cli import build_parser, main
from repro.experiments import (
    fig6_correlation,
    fig7_scaling,
    fig9_permutation,
    fig9_reuse,
    fig10_resources,
    table1_volumes,
)
from repro.mapping.stitching import HOP_MODES


class TestFig6:
    def test_run_and_format(self):
        result = fig6_correlation.run(capacity=4, num_mappings=6, seed=0)
        assert len(result.study.samples) == 6
        text = fig6_correlation.format_result(result)
        assert "edge crossings" in text

    def test_paper_reference_present(self):
        result = fig6_correlation.run(capacity=4, num_mappings=4, seed=0)
        assert result.paper["edge_crossings_r"] == pytest.approx(0.831)


class TestFig7:
    def test_single_level_series(self):
        result = fig7_scaling.run_single_level(capacities=[2, 4])
        series = result.series()
        assert set(series) == {"lower_bound", "force_directed", "graph_partition"}
        for method_series in series.values():
            assert set(method_series) == {2, 4}

    def test_latencies_above_bound(self):
        result = fig7_scaling.run_single_level(capacities=[4])
        series = result.series()
        for method in ("force_directed", "graph_partition"):
            assert series[method][4] >= series["lower_bound"][4]

    def test_two_level_runs(self):
        result = fig7_scaling.run_two_level(capacities=[4])
        assert result.levels == 2
        assert "graph_partition" in result.series()

    def test_format(self):
        result = fig7_scaling.run_single_level(capacities=[2])
        assert "lower_bound" in fig7_scaling.format_result(result)


class TestFig9Reuse:
    def test_differentials_computed(self):
        result = fig9_reuse.run(capacities=[4], methods=("linear",))
        assert len(result.comparisons) == 1
        comparison = result.comparisons[0]
        assert comparison.volume_reuse > 0
        assert -1.0 <= comparison.differential <= 1.0

    def test_reuse_saves_area_for_linear(self):
        from repro.api import EvaluationRequest, Pipeline

        pipeline = Pipeline()
        no_reuse = pipeline.evaluate(EvaluationRequest("linear", 4, levels=2))
        reuse = pipeline.evaluate(EvaluationRequest("linear", 4, levels=2, reuse=True))
        assert reuse.area <= no_reuse.area

    def test_format(self):
        result = fig9_reuse.run(capacities=[4], methods=("linear",))
        assert "linear" in fig9_reuse.format_result(result)


class TestFig9Permutation:
    def test_all_modes_measured(self):
        result = fig9_permutation.run(capacities=[4])
        modes = {m.hop_mode for m in result.measurements}
        assert modes == set(HOP_MODES)

    def test_speedup_computable(self):
        result = fig9_permutation.run(capacities=[4])
        assert result.speedup(4) > 0

    def test_braid_counts_match_permutation_edges(self):
        result = fig9_permutation.run(capacities=[4], hop_modes=("none",))
        assert result.measurements[0].braids >= 28  # 14 modules x 2 outputs

    def test_format(self):
        result = fig9_permutation.run(capacities=[4], hop_modes=("none", "random"))
        text = fig9_permutation.format_result(result)
        assert "random" in text


class TestFig10:
    def test_single_level_sweep(self):
        result = fig10_resources.run_single_level(capacities=[2, 4])
        volumes = result.series("volume")
        assert set(volumes) == set(fig10_resources.SINGLE_LEVEL_METHODS)

    def test_two_level_includes_stitching(self):
        result = fig10_resources.run_two_level(capacities=[4])
        assert "hierarchical_stitching" in result.series("volume")

    def test_volume_reduction_ratio(self):
        result = fig10_resources.run_two_level(capacities=[4])
        assert result.volume_reduction(4) > 0

    def test_series_rejects_unknown_field(self):
        result = fig10_resources.run_single_level(capacities=[2])
        with pytest.raises(ValueError):
            result.series("bogus")

    def test_format(self):
        result = fig10_resources.run_single_level(capacities=[2])
        assert "volume" in fig10_resources.format_result(result)


class TestTable1:
    def test_level1_rows(self):
        result = table1_volumes.run(levels=1, capacities=[2, 4])
        assert "random" in result.volumes
        assert "critical" in result.volumes
        assert "hierarchical_stitching" not in result.volumes

    def test_level2_rows(self):
        result = table1_volumes.run(levels=2, capacities=[4])
        assert "hierarchical_stitching" in result.volumes
        assert "random" not in result.volumes

    def test_volumes_above_critical(self):
        result = table1_volumes.run(levels=1, capacities=[4])
        critical = result.volumes["critical"][4]
        for row, by_capacity in result.volumes.items():
            if row == "critical":
                continue
            assert by_capacity[4] >= critical * 0.99

    def test_invalid_levels_rejected(self):
        with pytest.raises(ValueError):
            table1_volumes.run(levels=3)

    def test_paper_reference(self):
        reference = table1_volumes.paper_reference(2)
        assert reference["hierarchical_stitching"][100] == pytest.approx(5.93e6)

    def test_format(self):
        result = table1_volumes.run(levels=1, capacities=[2])
        assert "procedure" in table1_volumes.format_result(result)


class TestRegistryAndCli:
    def test_registry_contains_every_artifact(self):
        expected = {
            "fig6",
            "fig7a",
            "fig7b",
            "fig9ab",
            "fig9cd",
            "fig10-single",
            "fig10-two",
            "table1-level1",
            "table1-level2",
        }
        assert expected <= set(available_experiments())

    def test_run_experiment_by_name(self):
        result = run_experiment("fig6", num_mappings=4)
        assert "edge crossings" in get_experiment("fig6").format(result)

    def test_parser_list_command(self, capsys):
        assert main(["list"]) == 0
        captured = capsys.readouterr()
        assert "fig6" in captured.out

    def test_parser_run_command(self, capsys):
        assert main(["run", "fig6", "--num-mappings", "4"]) == 0
        captured = capsys.readouterr()
        assert "Fig. 6" in captured.out

    def test_parser_capacities_argument(self, capsys):
        assert main(["run", "table1-level1", "--capacities", "2"]) == 0
        captured = capsys.readouterr()
        assert "Table I" in captured.out

    def test_parser_rejects_bad_capacities(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "fig7a", "--capacities", "two,four"])

    def test_parser_rejects_unknown_experiment(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "nonexistent"])


def _capacity_cases():
    """(experiment, capacities) pairs no experiment may evaluate any of:
    an empty list, and a list whose second capacity has no factory (0 at
    any level, 5 at two levels)."""
    two_level = {"fig7b", "fig9ab", "fig9cd", "fig10-two", "table1-level2"}
    cases = []
    for name in available_experiments():
        if any(param.name == "capacities" for param in get_experiment(name).params):
            for capacities in ([], [16, 0]) + (([16, 5],) if name in two_level else ()):
                label = ",".join(map(str, capacities)) or "empty"
                cases.append(pytest.param(name, capacities, id=f"{name}-{label}"))
    return cases


@pytest.fixture
def evaluations(monkeypatch):
    """Every Pipeline.evaluate and fig9cd hierarchical_stitching call."""
    calls = []
    evaluate = Pipeline.evaluate
    stitch = fig9_permutation.hierarchical_stitching

    def counting_evaluate(pipeline, request):
        calls.append(request)
        return evaluate(pipeline, request)

    def counting_stitch(*args, **kwargs):
        calls.append(args)
        return stitch(*args, **kwargs)

    monkeypatch.setattr(Pipeline, "evaluate", counting_evaluate)
    monkeypatch.setattr(fig9_permutation, "hierarchical_stitching", counting_stitch)
    return calls


class TestCapacityChecks:
    """Capacity lists are checked once, before anything is evaluated."""

    def test_every_capacities_experiment_is_covered(self):
        names = {case.values[0] for case in _capacity_cases()}
        assert names == set(available_experiments()) - {"fig6"}

    @pytest.mark.parametrize("name, capacities", _capacity_cases())
    def test_raises_before_any_evaluation(self, evaluations, name, capacities):
        expected = RequestError if capacities else ValueError
        with pytest.raises(expected):
            get_experiment(name).run(capacities=capacities)
        assert evaluations == []

    @pytest.mark.parametrize("name, capacities", _capacity_cases())
    def test_cli_exits_2_without_a_traceback(
        self, evaluations, capsys, name, capacities
    ):
        argv = ["run", name, "--capacities", ",".join(map(str, capacities)) or ","]
        try:
            code = main(argv)
        except SystemExit as exit:  # argparse rejects the empty list
            code = exit.code
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if capacities:
            assert err.startswith(f"run {name}: capacities: "), err
        assert evaluations == []

    def test_request_error_names_the_capacity(self):
        with pytest.raises(RequestError) as excinfo:
            fig7_scaling.run_two_level(capacities=[16, 5])
        assert excinfo.value.field == "capacities"
        assert "capacity 5" in str(excinfo.value)


def _workers_experiments():
    return sorted(
        name
        for name in available_experiments()
        if any(param.name == "workers" for param in get_experiment(name).params)
    )


class TestWorkerChecks:
    """A worker count below 1 is a request error, raised before anything
    is evaluated."""

    def test_the_sweep_experiments_declare_workers(self):
        assert _workers_experiments() == [
            "fig10-single",
            "fig10-two",
            "fig7a",
            "fig7b",
            "table1-level1",
            "table1-level2",
        ]

    @pytest.mark.parametrize("name", _workers_experiments())
    @pytest.mark.parametrize("workers", [0, -1])
    def test_raises_before_any_evaluation(self, evaluations, name, workers):
        with pytest.raises(RequestError) as excinfo:
            get_experiment(name).run(workers=workers)
        assert excinfo.value.field == "workers"
        assert str(excinfo.value) == f"workers: must be >= 1, got {workers}"
        assert evaluations == []

    @pytest.mark.parametrize("name", _workers_experiments())
    def test_cli_exits_2_without_a_traceback(self, evaluations, capsys, name):
        assert main(["run", name, "--capacities", "4", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert err == f"run {name}: workers: must be >= 1, got 0\n", err
        assert evaluations == []

