"""Tests for the pluggable API: registries, pipeline caching, JSON CLI,
and the package metadata: its version and its one runtime dependency."""

import ast
import importlib
import inspect
import json
import pkgutil
import re
import typing
from pathlib import Path

import pytest

import repro
import repro.api.pipeline as pipeline_module
from repro.api import (
    EvaluationRequest,
    FactoryEvaluation,
    Mapper,
    ParamSpec,
    Pipeline,
    RegistryError,
    available_experiments,
    SweepExecutor,
    SweepPlan,
    WORKERS_PARAM,
    available_mappers,
    get_experiment,
    get_mapper,
    register_experiment,
    register_mapper,
    to_json,
    unregister_experiment,
    unregister_mapper,
)
from repro.cli import build_parser, main
from repro.mapping import Placement, grid_dimensions_for
from repro.mapping.stitching import StitchedMapping

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


class SnakeMapper(Mapper):
    """Row-major snake layout used as the custom-mapper fixture."""

    name = "snake"

    def place(self, factory, *, seed=0, context=None):
        qubits = list(range(factory.circuit.num_qubits))
        height, width = grid_dimensions_for(len(qubits))
        placement = Placement(width=width, height=height)
        for index, qubit in enumerate(qubits):
            row, col = divmod(index, width)
            placement.place(qubit, (row, width - 1 - col if row % 2 else col))
        return placement


@pytest.fixture
def snake_mapper():
    register_mapper(SnakeMapper)
    yield "snake"
    unregister_mapper("snake")


class TestMapperRegistry:
    def test_builtins_registered(self):
        assert set(available_mappers()) >= {
            "random",
            "linear",
            "force_directed",
            "graph_partition",
            "hierarchical_stitching",
        }

    def test_unknown_mapper_error_lists_names(self):
        with pytest.raises(ValueError) as excinfo:
            get_mapper("does_not_exist")
        message = str(excinfo.value)
        assert "does_not_exist" in message
        assert "linear" in message and "hierarchical_stitching" in message

    def test_duplicate_registration_rejected(self):
        with pytest.raises(RegistryError):
            register_mapper(SnakeMapper, name="linear")

    def test_failed_registration_leaves_instance_untouched(self):
        instance = SnakeMapper()
        with pytest.raises(RegistryError):
            register_mapper(instance, name="linear")
        assert instance.name == "snake"

    def test_function_mapper_registration(self):
        @register_mapper(name="reversed_rows")
        def reversed_rows(factory, *, seed=0, context=None):
            qubits = list(reversed(range(factory.circuit.num_qubits)))
            height, width = grid_dimensions_for(len(qubits))
            placement = Placement(width=width, height=height)
            for index, qubit in enumerate(qubits):
                placement.place(qubit, (index // width, index % width))
            return placement

        try:
            evaluation = Pipeline().evaluate(
                EvaluationRequest(method="reversed_rows", capacity=2)
            )
            assert evaluation.latency > 0
        finally:
            unregister_mapper("reversed_rows")


class TestCustomMapperEndToEnd:
    def test_pipeline_evaluates_custom_mapper(self, snake_mapper):
        evaluation = Pipeline().evaluate(
            EvaluationRequest(method=snake_mapper, capacity=4)
        )
        assert evaluation.method == "snake"
        assert evaluation.latency >= evaluation.critical_latency
        assert evaluation.volume == evaluation.latency * evaluation.area

    def test_sweep_picks_up_custom_mapper(self, snake_mapper):
        plan = SweepPlan.from_grid(["linear", snake_mapper], [2, 4], levels=1)
        results = SweepExecutor().run(plan).evaluations
        assert [(r.method, r.capacity) for r in results] == [
            ("linear", 2),
            ("snake", 2),
            ("linear", 4),
            ("snake", 4),
        ]


class TestPipelineCaching:
    def test_sweep_builds_each_configuration_once(self, monkeypatch):
        builds = []
        real_build = pipeline_module.build_factory

        def counting_build(spec, **kwargs):
            builds.append((spec.k, spec.levels, kwargs.get("reuse_policy")))
            return real_build(spec, **kwargs)

        monkeypatch.setattr(pipeline_module, "build_factory", counting_build)
        executor = SweepExecutor()
        pipeline = executor.pipeline()
        methods = [
            "random",
            "linear",
            "force_directed",
            "graph_partition",
            "hierarchical_stitching",
        ]
        executor.run(SweepPlan.from_grid(methods, [4], levels=2))
        # One base factory for all five mappers (hierarchical stitching's
        # port-reassignment rebuild goes through repro.mapping.stitching,
        # not the pipeline's builder).
        assert len(builds) == 1
        assert pipeline.stats.factory_builds == 1
        assert pipeline.stats.cache_hits == len(methods) - 1

        executor.run(SweepPlan.from_grid(methods, [4], levels=2, reuse=True))
        assert pipeline.stats.factory_builds == 2  # reuse=True is a new config

    def test_cache_is_lru_bounded(self):
        pipeline = Pipeline(cache_size=1)
        pipeline.factory(2, 1)
        pipeline.factory(4, 1)
        pipeline.factory(2, 1)
        assert pipeline.stats.factory_builds == 3
        assert pipeline.stats.cache_hits == 0

    def test_stitched_mapping_used_for_hierarchical(self):
        pipeline = Pipeline()
        factory = pipeline.factory(4, levels=2)
        outcome = get_mapper("hierarchical_stitching").place(factory, seed=0)
        assert isinstance(outcome, StitchedMapping)
        # The stitched factory is a port-reassigned rebuild, not the shared
        # base instance (which must stay read-only).
        assert outcome.factory is not factory

    def test_fd_stats_attributed_only_to_pipeline_refinements(self):
        from repro.graphs import interaction_graph
        from repro.mapping import (
            ForceDirectedConfig,
            force_directed_refine,
            linear_factory_placement,
            take_refine_stats,
        )

        pipeline = Pipeline()
        factory = pipeline.factory(4, 1)
        graph = interaction_graph(factory.circuit)
        take_refine_stats()
        # A refinement outside the pipeline, left pending unharvested.
        force_directed_refine(
            graph,
            linear_factory_placement(factory),
            ForceDirectedConfig(sweeps=7, seed=0),
        )
        pipeline.evaluate(EvaluationRequest(method="force_directed", capacity=4))
        # Only the pipeline's own refinement (default 30 sweeps) counts —
        # the pending 7-sweep outsider must not be attributed.
        assert pipeline.stats.fd_sweeps == 30
        assert pipeline.stats.fd_moves_accepted > 0
        # Non-FD mappers attribute nothing.
        before = pipeline.stats.fd_sweeps
        pipeline.evaluate(EvaluationRequest(method="linear", capacity=4))
        assert pipeline.stats.fd_sweeps == before


class TestResultsSerialization:
    def test_factory_evaluation_round_trip(self):
        evaluation = Pipeline().evaluate(
            EvaluationRequest(method="linear", capacity=2)
        )
        restored = FactoryEvaluation.from_dict(json.loads(to_json(evaluation)))
        assert restored == evaluation

    def test_evaluation_request_round_trip(self):
        from repro.mapping.force_directed import ForceDirectedConfig
        from repro.routing import SimulatorConfig

        request = EvaluationRequest(
            method="force_directed",
            capacity=4,
            levels=2,
            reuse=True,
            seed=7,
            fd_config=ForceDirectedConfig(sweeps=5, seed=7),
            sim_config=SimulatorConfig(max_candidates=1),
            options={"note": "round-trip"},
        )
        restored = EvaluationRequest.from_dict(
            json.loads(json.dumps(request.to_dict()))
        )
        assert restored.method == request.method
        assert restored.fd_config == request.fd_config
        assert restored.sim_config == request.sim_config
        assert restored.options == {"note": "round-trip"}

    def test_experiment_results_round_trip(self):
        from repro.experiments import fig7_scaling, table1_volumes

        fig7 = fig7_scaling.run_single_level(capacities=[2])
        assert fig7_scaling.Fig7Result.from_dict(
            json.loads(to_json(fig7))
        ).series() == fig7.series()

        table1 = table1_volumes.run(levels=1, capacities=[2])
        restored = table1_volumes.Table1Result.from_dict(
            json.loads(to_json(table1))
        )
        assert restored.volumes == table1.volumes
        assert restored.evaluations == table1.evaluations


class TestExperimentRegistry:
    def test_unknown_experiment_error_lists_names(self):
        with pytest.raises(ValueError) as excinfo:
            get_experiment("nope")
        assert "fig6" in str(excinfo.value)

    def test_register_experiment_decorator_and_cli(self, capsys):
        @register_experiment(
            "mini-study",
            params=(ParamSpec("capacity", "int", default=2, help="factory size"),),
            formatter=lambda result: f"mini volume={result['volume']}",
            description="tiny registration test",
        )
        def run_mini(capacity=2, seed=0):
            point = Pipeline().evaluate(
                EvaluationRequest(method="linear", capacity=capacity, seed=seed)
            )
            return {"volume": point.volume}

        try:
            assert "mini-study" in available_experiments()
            assert main(["run", "mini-study", "--capacity", "2"]) == 0
            assert "mini volume=" in capsys.readouterr().out
        finally:
            unregister_experiment("mini-study")

    def test_register_sweep_experiment_runs_its_requests_on_an_executor(self, capsys):
        def requests(capacities=(2, 3), seed=0):
            return [EvaluationRequest("linear", k, seed=seed) for k in capacities]

        def assemble(evaluations, **params):
            return {"volumes": [point.volume for point in evaluations]}

        spec = register_experiment(
            "mini-sweep",
            requests=requests,
            assemble=assemble,
            params=(ParamSpec("capacities", "int_list"), WORKERS_PARAM),
            formatter=lambda result: f"mini volumes={result['volumes']}",
        )
        try:
            result, swept = spec.execute(capacities="2,3,2")
            pipeline = Pipeline()
            assert result["volumes"] == [
                pipeline.evaluate(request).volume for request in requests((2, 3, 2))
            ]
            assert swept.stats.requests == 3 and swept.stats.duplicate_hits == 1
            assert spec.run(capacities=[2, 3, 2], workers=2) == result
            assert main(["run", "mini-sweep", "--capacities", "3"]) == 0
            assert "mini volumes=" in capsys.readouterr().out
        finally:
            unregister_experiment("mini-sweep")

    @pytest.mark.parametrize(
        "forms",
        [{"requests": list}, {"assemble": list}, {"requests": list, "assemble": list}],
    )
    def test_register_experiment_takes_a_runner_or_requests_and_assemble(self, forms):
        runner = (lambda: None) if len(forms) == 2 else None
        with pytest.raises(ValueError):
            register_experiment("malformed", runner, **forms)
        assert "malformed" not in available_experiments()

    def test_param_spec_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ParamSpec("x", "complex")


class TestCliJson:
    def test_run_json_round_trips(self, capsys):
        assert main(["run", "table1-level1", "--capacities", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "table1-level1"
        volumes = payload["result"]["volumes"]
        assert "critical" in volumes and "random" in volumes
        from repro.experiments.table1_volumes import Table1Result

        restored = Table1Result.from_dict(payload["result"])
        assert restored.volumes["random"][2] > 0

    def test_list_json(self, capsys):
        assert main(["list", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in listing} >= {"fig6", "table1-level1"}

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        assert (
            main(
                ["run", "fig7a", "--capacities", "2", "--json", "--output", str(target)]
            )
            == 0
        )
        assert capsys.readouterr().out == ""
        payload = json.loads(target.read_text())
        assert payload["experiment"] == "fig7a"

    def test_options_before_experiment_name_still_work(self, capsys):
        # The pre-subparser CLI accepted `run --seed 1 fig6`; keep it valid.
        assert main(["run", "--num-mappings", "4", "fig6"]) == 0
        assert "Fig. 6" in capsys.readouterr().out

    def test_unregister_builtin_as_first_registry_operation(self):
        # Must load the built-ins lazily like the lookup functions do; run in
        # a fresh interpreter so it really is the first registry operation.
        import os
        import subprocess
        import sys

        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "from repro.api import unregister_experiment, available_experiments\n"
            "unregister_experiment('fig6')\n"
            "assert 'fig6' not in available_experiments()\n"
            "print('ok')\n"
        )
        env = dict(os.environ, PYTHONPATH=src_dir)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    def test_per_experiment_options_are_scoped(self):
        parser = build_parser()
        # --num-mappings belongs to fig6, not fig7a.
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "fig7a", "--num-mappings", "4"])
        args = parser.parse_args(["run", "fig6", "--num-mappings", "4"])
        assert args.num_mappings == 4


class TestSimStallStats:
    """Pipeline/executor aggregation of the simulator's stall counters."""

    def test_pipeline_aggregates_sim_counters(self):
        from repro.api import EvaluationRequest, Pipeline

        pipeline = Pipeline()
        request = EvaluationRequest(method="random", capacity=4)
        pipeline.evaluate(request)
        stats = pipeline.stats
        # The random mapping of a K=4 factory stalls; whatever the exact
        # values, the three counters must satisfy the engine relations.
        assert stats.sim_distinct_stalls > 0
        assert stats.sim_wakeups <= stats.sim_stall_events
        before = stats.snapshot()
        # A cached re-evaluation reports the same workload counters again.
        pipeline.evaluate(request)
        delta = pipeline.stats.delta(before)
        assert delta.sim_cache_hits == 1
        assert delta.sim_stall_events == before.sim_stall_events
        assert delta.sim_distinct_stalls == before.sim_distinct_stalls
        assert delta.sim_wakeups == before.sim_wakeups

    def test_executor_stats_round_trip_sim_counters(self):
        from repro.api import SweepExecutor, SweepPlan

        plan = SweepPlan.from_grid(methods=("random",), capacities=(4,))
        result = SweepExecutor(workers=1).run(plan)
        stats = result.stats.to_dict()
        assert stats["sim_distinct_stalls"] > 0
        assert stats["sim_wakeups"] <= stats["sim_stall_events"]


class TestClientHops:
    """``sim_config.hops`` against the placement the pipeline evaluates."""

    @staticmethod
    def _request(hops, method="linear"):
        from repro.routing import SimulatorConfig

        return EvaluationRequest(
            method=method, capacity=2, sim_config=SimulatorConfig(hops=hops)
        )

    @staticmethod
    def _braid_gate(circuit) -> int:
        return next(
            index
            for index, gate in enumerate(circuit.gates)
            if any(gate.interaction_pairs())
        )

    @pytest.mark.parametrize("cell", [(10_000, 10_000), (0, 10_000), (10_000, 0)])
    def test_hop_outside_the_grid_is_rejected_before_simulation(
        self, monkeypatch, cell
    ):
        from repro.api import RequestError

        pipeline = Pipeline()
        simulated = []
        monkeypatch.setattr(
            pipeline.sim_cache, "simulate", lambda *args: simulated.append(args)
        )
        request = self._request({7: cell})
        for evaluate in (pipeline.evaluate, lambda r: pipeline.evaluate_batch([r])):
            with pytest.raises(RequestError, match="gate 7 ") as excinfo:
                evaluate(request)
            assert excinfo.value.field == "sim_config.hops"
            assert str(excinfo.value).startswith("sim_config.hops: ")
        assert simulated == []

    def test_hop_inside_the_grid_equals_a_direct_simulation(self):
        from repro.routing import SimulatorConfig, simulate

        pipeline = Pipeline()
        factory = pipeline.factory(2, 1, False)
        placement = get_mapper("linear").place(factory)
        gate = self._braid_gate(factory.circuit)
        cell = (placement.height - 1, placement.width - 1)
        result = pipeline.evaluate(self._request({gate: cell}))
        direct = simulate(
            factory.circuit, placement, SimulatorConfig(hops={gate: cell})
        )
        expected = (direct.latency, direct.stall_cycles)
        assert (result.latency, result.stall_cycles) == expected
        plain = pipeline.evaluate(EvaluationRequest(method="linear", capacity=2))
        assert result.latency != plain.latency  # the hop was routed

    def test_stitched_mappings_replace_client_hops(self):
        request = self._request({0: (10_000, 10_000)}, "hierarchical_stitching")
        assert Pipeline().evaluate(request).latency > 0


#: Packages only the tests import, as oracles of the in-repo algorithms.
TEST_ORACLES = ("networkx", "scipy")


def _oracle_imports(source: str):
    """``(line, module)`` of each import of a test oracle in ``source``,
    at any depth: lazy imports inside functions count."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [
            (node.lineno, name) for name in names if name.split(".")[0] in TEST_ORACLES
        ]
    return sorted(found)


def _defined_in(module):
    """The functions and classes ``module`` defines, with each class's
    methods, class and static methods and property getters."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield member


class TestPackageMetadata:
    def test_version_matches_pyproject(self):
        match = re.search(
            r'^version\s*=\s*"([^"]+)"', PYPROJECT.read_text(), re.MULTILINE
        )
        assert match is not None, "no version line in pyproject.toml"
        assert repro.__version__ == match.group(1)

    def test_numpy_is_the_only_runtime_dependency(self):
        match = re.search(
            r"^dependencies = \[(.*?)\]",
            PYPROJECT.read_text(),
            re.MULTILINE | re.DOTALL,
        )
        assert match is not None, "no dependencies list in pyproject.toml"
        assert re.findall(r'"([A-Za-z0-9_.-]+)', match.group(1)) == ["numpy"]

    def test_no_module_imports_a_test_oracle(self):
        package = Path(repro.__file__).parent
        files = sorted(package.rglob("*.py"))
        assert package / "graphs" / "community.py" in files
        found = [
            f"{path.relative_to(package)}:{line}: import {name}"
            for path in files
            for line, name in _oracle_imports(path.read_text())
        ]
        assert found == []

    def test_every_annotation_resolves(self):
        """``typing.get_type_hints`` resolves every annotation of every
        function, class and method defined in the package: a name an
        annotation uses but its module never imports would raise."""
        checked, failures = 0, []
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(info.name)
            for obj in _defined_in(module):
                checked += 1
                try:
                    typing.get_type_hints(obj)
                except Exception as error:
                    failures.append(f"{info.name}.{obj.__qualname__}: {error!r}")
        assert checked > 500
        assert failures == []

    def test_the_import_walk_sees_lazy_and_dotted_imports(self):
        source = (
            "import numpy\n"
            "import scipy.optimize as so\n"
            "def f():\n"
            "    import networkx as nx\n"
            "    from networkx.algorithms import community\n"
            "    from .networkx import helper\n"
            "class C:\n"
            "    def g(self):\n"
            "        from scipy import sparse\n"
        )
        assert _oracle_imports(source) == [
            (2, "scipy.optimize"),
            (4, "networkx"),
            (5, "networkx.algorithms"),
            (9, "scipy"),
        ]
