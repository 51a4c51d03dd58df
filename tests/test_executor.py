"""Tests for the parallel sweep executor and simulation memoization.

The contract under test: a :class:`~repro.api.executor.SweepPlan` fully
determines its results — whatever the worker count — and the executor's
cache accounting is exact.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import (
    EvaluationRequest,
    Pipeline,
    SweepExecutor,
    SweepPlan,
    SweepProgress,
    SweepRunResult,
    get_mapper,
    recommended_workers,
    register_mapper,
    unregister_mapper,
)
from repro.api.executor import ExecutorStats
from repro.api.pipeline import PipelineStats
from repro.circuits.circuit import Circuit
from repro.circuits.gates import cnot, prep
from repro.mapping.placement import row_major_placement
from repro.routing.router import BraidRouter
from repro.routing.mesh import Mesh
from repro.routing.simulator import (
    SimulationCache,
    SimulatorConfig,
    circuit_fingerprint,
    simulate,
    simulation_cache_key,
)

METHODS = ("linear", "graph_partition")
CAPACITIES = (2, 3)


def small_plan() -> SweepPlan:
    return SweepPlan.from_grid(methods=METHODS, capacities=CAPACITIES)


def counters(stats: PipelineStats) -> dict:
    """The deterministic counter fields, without the wall-clock timings."""
    return {
        field.name: getattr(stats, field.name)
        for field in dataclasses.fields(stats)
        if not field.name.endswith("_seconds")
    }


# ----------------------------------------------------------------------
# SweepPlan
# ----------------------------------------------------------------------
class TestSweepPlan:
    def test_grid_expansion_is_capacity_major(self):
        plan = small_plan()
        combos = [(r.capacity, r.method) for r in plan]
        assert combos == [
            (capacity, method) for capacity in CAPACITIES for method in METHODS
        ]

    def test_grid_axes_expand(self):
        plan = SweepPlan.from_grid(
            methods=("linear",),
            capacities=(2,),
            levels=(1, 2),
            reuse=(False, True),
            seeds=(0, 1),
        )
        assert len(plan) == 8
        assert {r.levels for r in plan} == {1, 2}
        assert {r.reuse for r in plan} == {False, True}
        assert {r.seed for r in plan} == {0, 1}

    def test_grid_accepts_one_shot_iterators(self):
        """Every axis is materialized before the nested expansion."""
        plan = SweepPlan.from_grid(
            methods=iter(METHODS),
            capacities=iter(CAPACITIES),
            levels=iter([1, 2]),
            seeds=iter([0, 1]),
        )
        assert len(plan) == len(METHODS) * len(CAPACITIES) * 2 * 2
        assert all(isinstance(r.levels, int) for r in plan)

    def test_round_trip(self):
        plan = SweepPlan.from_grid(
            methods=METHODS,
            capacities=CAPACITIES,
            sim_config=SimulatorConfig(max_candidates=3),
        )
        restored = SweepPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert restored == plan

    def test_sequence_protocol(self):
        plan = small_plan()
        assert len(plan) == len(METHODS) * len(CAPACITIES)
        assert plan[0].method == METHODS[0]
        assert [r.method for r in plan][: len(METHODS)] == list(METHODS)


# ----------------------------------------------------------------------
# Executor determinism
# ----------------------------------------------------------------------
class TestExecutorDeterminism:
    def test_serial_matches_pipeline_evaluate(self):
        serial = SweepExecutor(workers=1).run(small_plan())
        pipeline = Pipeline()
        reference = [pipeline.evaluate(request) for request in small_plan()]
        assert serial.evaluations == reference

    def test_workers_1_vs_4_byte_identical(self):
        """Same seed, 1 vs 4 workers: byte-identical serialized results."""
        plan = small_plan()
        serial = SweepExecutor(workers=1).run(plan)
        parallel = SweepExecutor(workers=4).run(plan)
        blob_1 = json.dumps(serial.to_dict(), sort_keys=True)
        blob_4 = json.dumps(parallel.to_dict(), sort_keys=True)
        assert blob_1 == blob_4

    def test_result_round_trip_drops_stats(self):
        result = SweepExecutor(workers=1).run(small_plan())
        restored = SweepRunResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored.evaluations == result.evaluations
        # Stats are run observability, not part of the deterministic result.
        assert "stats" not in result.to_dict()
        assert restored.stats.requests == 0

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            SweepExecutor(workers=0)
        with pytest.raises(ValueError):
            from repro.experiments import table1_volumes

            table1_volumes.run(levels=1, capacities=[2], workers=-1)

    def test_recommended_workers_positive(self):
        assert recommended_workers() >= 1


# ----------------------------------------------------------------------
# Cache accounting
# ----------------------------------------------------------------------
class TestCacheAccounting:
    def test_duplicate_requests_are_deduplicated_exactly(self):
        base = list(small_plan())
        plan = SweepPlan.from_requests(base + [base[0], base[-1], base[0]])
        result = SweepExecutor(workers=1).run(plan)
        stats = result.stats
        assert stats.requests == len(base) + 3
        assert stats.duplicate_hits == 3
        assert stats.evaluations == len(base)
        assert stats.requests == stats.duplicate_hits + stats.evaluations
        # Duplicates are fanned out to their plan positions.
        assert result.evaluations[len(base)] == result.evaluations[0]
        assert result.evaluations[len(base) + 1] == result.evaluations[len(base) - 1]
        assert result.evaluations[len(base) + 2] == result.evaluations[0]

    def test_repeat_run_hits_simulation_cache(self):
        executor = SweepExecutor(workers=1)
        first = executor.run(small_plan())
        assert first.stats.sim_cache_hits == 0
        assert first.stats.factory_builds == len(CAPACITIES)
        second = executor.run(small_plan())
        # Every point re-maps deterministically and every simulation is
        # answered from the memo: same results, zero re-simulation.
        assert second.stats.sim_cache_hits == second.stats.evaluations
        assert second.stats.factory_builds == 0
        assert second.evaluations == first.evaluations

    def test_parallel_accounting_invariant(self):
        plan = SweepPlan.from_requests(list(small_plan()) + [small_plan()[0]])
        stats = SweepExecutor(workers=2).run(plan).stats
        assert stats.requests == stats.duplicate_hits + stats.evaluations
        assert stats.workers == 2
        assert stats.wall_seconds > 0

    def test_workers_counts_the_processes_that_evaluated(self):
        """A batched run and a one-request run evaluate in-process, and a
        pool never outnumbers the requests it evaluates."""
        two = SweepPlan.from_requests(list(small_plan())[:2])
        one = SweepPlan.from_requests(list(small_plan())[:1])
        batched = SweepExecutor(workers=4, batch=True).run(two).stats
        assert (batched.evaluations, batched.workers) == (2, 1)
        single = SweepExecutor(workers=4).run(one).stats
        assert (single.evaluations, single.workers) == (1, 1)
        pooled = SweepExecutor(workers=4).run(two).stats
        assert (pooled.evaluations, pooled.workers) == (2, 2)


# ----------------------------------------------------------------------
# Parallel scheduling
# ----------------------------------------------------------------------
class TestLongestFirstSubmission:
    def test_pool_receives_the_longest_requests_first(self, monkeypatch):
        """More levels first, then higher capacity; ties keep plan order."""
        import concurrent.futures

        import repro.api.executor as executor_module

        submitted = []

        class RecordingPool:
            """An in-process stand-in for the process pool."""

            def __init__(self, max_workers, initializer):
                initializer()

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, request):
                submitted.append((request.method, request.levels, request.capacity))
                future = concurrent.futures.Future()
                future.set_result(fn(request))
                return future

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", RecordingPool)
        # The stand-in runs the worker initializer in this process: restore
        # the worker global it sets when the test ends.
        monkeypatch.setattr(
            executor_module, "_WORKER_PIPELINE", executor_module._WORKER_PIPELINE
        )
        plan = SweepPlan.from_requests(
            [
                EvaluationRequest(method="linear", capacity=2),
                EvaluationRequest(method="random", capacity=2),
                EvaluationRequest(method="linear", capacity=3),
                EvaluationRequest(method="linear", capacity=4, levels=2),
                EvaluationRequest(method="random", capacity=3),
                EvaluationRequest(method="linear", capacity=2),
            ]
        )
        parallel = SweepExecutor(workers=2).run(plan)
        assert submitted == [
            ("linear", 2, 4),
            ("linear", 1, 3),
            ("random", 1, 3),
            ("linear", 1, 2),
            ("random", 1, 2),
        ]
        serial = SweepExecutor(workers=1).run(plan)
        assert parallel.evaluations == serial.evaluations


# ----------------------------------------------------------------------
# Batched evaluation
# ----------------------------------------------------------------------
class TestBatchedExecution:
    def test_batched_run_byte_identical_to_serial(self):
        plan = small_plan()
        serial = SweepExecutor(workers=1).run(plan)
        batched = SweepExecutor(batch=True).run(plan)
        assert json.dumps(batched.to_dict(), sort_keys=True) == json.dumps(
            serial.to_dict(), sort_keys=True
        )
        assert batched.stats.evaluations == serial.stats.evaluations
        assert batched.stats.sim_cache_hits == serial.stats.sim_cache_hits

    def test_batch_takes_precedence_over_workers(self):
        plan = small_plan()
        serial = SweepExecutor(workers=1).run(plan)
        batched = SweepExecutor(workers=4, batch=True).run(plan)
        assert json.dumps(batched.to_dict(), sort_keys=True) == json.dumps(
            serial.to_dict(), sort_keys=True
        )

    def test_batched_duplicate_accounting(self):
        """The accounting invariant holds in batch mode, with exact counts."""
        base = list(small_plan())
        plan = SweepPlan.from_requests(base + [base[0], base[-1], base[0]])
        result = SweepExecutor(batch=True).run(plan)
        stats = result.stats
        assert stats.requests == len(base) + 3
        assert stats.duplicate_hits == 3
        assert stats.evaluations == len(base)
        assert stats.requests == (
            stats.duplicate_hits + stats.store_hits + stats.evaluations
        )
        assert result.evaluations[len(base)] == result.evaluations[0]

    def test_pipeline_evaluate_batch_matches_evaluate(self):
        """evaluate_batch == [evaluate(r) ...], results and counters alike
        (the ``*_seconds`` phase timings are wall clock, hence not compared).
        """
        requests = list(small_plan())
        serial_pipeline = Pipeline()
        serial = [serial_pipeline.evaluate(r) for r in requests]
        batch_pipeline = Pipeline()
        batched = batch_pipeline.evaluate_batch(requests)
        assert batched == serial
        assert counters(batch_pipeline.stats) == counters(serial_pipeline.stats)

    def test_pipeline_evaluate_batch_duplicates_count_as_cache_hits(self):
        """Within-batch duplicate points keep SimulationCache counters
        byte-identical to the serial loop: the first occurrence simulates,
        the rest are answered (and counted) as cache hits.
        """
        requests = list(small_plan())
        requests = requests + [requests[0], requests[0]]
        serial_pipeline = Pipeline()
        serial = [serial_pipeline.evaluate(r) for r in requests]
        batch_pipeline = Pipeline()
        batched = batch_pipeline.evaluate_batch(requests)
        assert batched == serial
        assert counters(batch_pipeline.stats) == counters(serial_pipeline.stats)
        assert batch_pipeline.sim_cache.hits == serial_pipeline.sim_cache.hits
        assert batch_pipeline.sim_cache.misses == serial_pipeline.sim_cache.misses

    def test_evaluate_batch_empty(self):
        assert Pipeline().evaluate_batch([]) == []


# ----------------------------------------------------------------------
# Simulation memoization
# ----------------------------------------------------------------------
def tiny_circuit(tag: str = "tiny") -> Circuit:
    circuit = Circuit(tag)
    q = circuit.add_register("q", 4)
    circuit.append(prep(q[0]))
    circuit.append(cnot(q[0], q[1]))
    circuit.append(cnot(q[2], q[3]))
    circuit.append(cnot(q[0], q[3]))
    return circuit


class TestSimulationCache:
    def test_memoized_simulate_matches_and_counts(self):
        circuit = tiny_circuit()
        placement = row_major_placement(list(range(4)))
        cache = SimulationCache()
        first = cache.simulate(circuit, placement)
        second = cache.simulate(circuit, placement)
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)
        assert first.latency == simulate(circuit, placement).latency

    def test_one_shot_gate_iterator_is_materialized(self):
        """A generator of gates must not be consumed by fingerprinting."""
        circuit = tiny_circuit()
        placement = row_major_placement(list(range(4)))
        cache = SimulationCache()
        from_iterator = cache.simulate(iter(circuit.gates), placement)
        reference = simulate(circuit, placement)
        assert from_iterator.latency == reference.latency
        # The cached entry must serve the equivalent list-based call too.
        assert cache.simulate(list(circuit.gates), placement) is from_iterator

    def test_key_distinguishes_config_and_placement(self):
        circuit = tiny_circuit()
        placement = row_major_placement(list(range(4)))
        other_placement = row_major_placement([3, 2, 1, 0])
        base = simulation_cache_key(circuit, placement)
        assert simulation_cache_key(circuit, placement) == base
        assert simulation_cache_key(circuit, other_placement) != base
        assert (
            simulation_cache_key(
                circuit, placement, SimulatorConfig(max_candidates=5)
            )
            != base
        )

    def test_fingerprint_is_content_based(self):
        assert circuit_fingerprint(tiny_circuit("a")) == circuit_fingerprint(
            tiny_circuit("b")
        )
        changed = tiny_circuit()
        changed.append(cnot(0, 2))
        assert circuit_fingerprint(changed) != circuit_fingerprint(tiny_circuit())

    def test_lru_bound(self):
        cache = SimulationCache(max_entries=1)
        circuit = tiny_circuit()
        cache.simulate(circuit, row_major_placement(list(range(4))))
        cache.simulate(circuit, row_major_placement([3, 2, 1, 0]))
        assert len(cache) == 1
        with pytest.raises(ValueError):
            SimulationCache(max_entries=0)

    def test_pipeline_counts_sim_cache_hits(self):
        pipeline = Pipeline()
        request = EvaluationRequest(method="linear", capacity=2)
        first = pipeline.evaluate(request)
        second = pipeline.evaluate(request)
        assert second == first
        assert pipeline.stats.sim_cache_hits == 1

    def test_stats_snapshot_delta(self):
        stats = PipelineStats(factory_builds=3, cache_hits=2, evaluations=5)
        snap = stats.snapshot()
        stats.factory_builds += 1
        stats.sim_cache_hits += 4
        delta = stats.delta(snap)
        assert delta == PipelineStats(
            factory_builds=1, cache_hits=0, evaluations=0, sim_cache_hits=4
        )

    def test_phase_seconds_attribute_wall_time_to_the_right_layer(self):
        """build/map/sim phase timers tick exactly when their phase runs."""
        pipeline = Pipeline()
        request = EvaluationRequest(method="linear", capacity=2)
        pipeline.evaluate(request)
        first = pipeline.stats.snapshot()
        assert first.build_seconds > 0.0  # factory built on the cold path
        assert first.map_seconds > 0.0
        assert first.sim_seconds > 0.0
        # A repeat of the same request hits the factory cache (no build
        # time) but still places and answers from the simulation cache.
        pipeline.evaluate(request)
        delta = pipeline.stats.delta(first)
        assert delta.build_seconds == 0.0
        assert delta.map_seconds > 0.0

    def test_phase_seconds_flow_through_executor_stats(self):
        plan = small_plan()
        result = SweepExecutor().run(plan)
        stats = result.stats
        assert stats.build_seconds > 0.0
        assert stats.map_seconds > 0.0
        assert stats.sim_seconds > 0.0
        payload = stats.to_dict()
        for key in ("build_seconds", "map_seconds", "sim_seconds"):
            assert payload[key] == getattr(stats, key)
        restored = ExecutorStats.from_dict(json.loads(json.dumps(payload)))
        assert restored == stats


# ----------------------------------------------------------------------
# Router fast path
# ----------------------------------------------------------------------
class TestRouterPlanCache:
    def test_pair_plans_are_cached_and_stable(self):
        placement = row_major_placement(list(range(4)))
        mesh = Mesh.from_placement(
            placement.positions, width=placement.width, height=placement.height
        )
        router = BraidRouter(mesh)
        fresh = BraidRouter(mesh)
        first = router.route_pair(0, 3, frozenset())
        assert len(router._pair_plans) == 1
        again = router.route_pair(0, 3, frozenset())
        assert len(router._pair_plans) == 1
        assert first.cells == again.cells
        assert first.cells == fresh.route_pair(0, 3, frozenset()).cells

    def test_blocked_first_candidate_falls_through(self):
        placement = row_major_placement(list(range(4)))
        mesh = Mesh.from_placement(
            placement.positions, width=placement.width, height=placement.height
        )
        router = BraidRouter(mesh)
        source = mesh.qubit_cell(0)
        target = mesh.qubit_cell(3)
        candidates, _ = router._pair_plan(source, target)
        assert len(candidates) >= 2
        first_cells, second_cells = candidates[0][1], candidates[1][1]
        # Lock a cell unique to the preferred shape: the cached plan must
        # fall through to the alternative candidate.
        blocked_cell = next(iter(first_cells - second_cells))
        alternative = router.route_pair(0, 3, frozenset({blocked_cell}))
        assert alternative is not None
        assert blocked_cell not in alternative.cells
        assert alternative.cells == second_cells


# ----------------------------------------------------------------------
# Experiment runners and the bench command
# ----------------------------------------------------------------------
def _experiments_declaring(param_name):
    from repro.api import available_experiments, get_experiment

    return [
        name
        for name in available_experiments()
        if any(param.name == param_name for param in get_experiment(name).params)
    ]


class TestWorkersIntegration:
    @pytest.mark.parametrize("name", _experiments_declaring("workers"))
    def test_workers_parity(self, name):
        """Every experiment with a workers option gives the same result at
        1 and 2 workers, at its bench smoke scale."""
        from repro.api import get_experiment
        from repro.cli import SMOKE_OVERRIDES

        spec = get_experiment(name)
        serial = spec.run(**SMOKE_OVERRIDES[name], workers=1)
        parallel = spec.run(**SMOKE_OVERRIDES[name], workers=2)
        assert parallel.to_dict() == serial.to_dict()

    def test_sweep_experiments_declare_workers_param(self):
        from repro.api import get_experiment

        for name in ("fig7a", "fig7b", "fig10-single", "fig10-two",
                     "table1-level1", "table1-level2"):
            params = {param.name for param in get_experiment(name).params}
            assert "workers" in params, name


class TestBenchCommand:
    def test_bench_smoke_writes_record(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "BENCH_test.json"
        code = main(
            [
                "bench",
                "--smoke",
                "--experiments",
                "table1-level1",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        record = json.loads(output.read_text())
        assert record["schema"] == "repro-msfu-bench/v1"
        assert record["smoke"] is True
        [entry] = record["experiments"]
        assert entry["experiment"] == "table1-level1"
        assert entry["wall_seconds"] > 0
        assert entry["sim_cycles"] > 0
        assert entry["evaluations"] > 0
        assert entry["cache"]["evaluations"] == entry["evaluations"]
        assert record["total_wall_seconds"] >= entry["wall_seconds"]

    def test_bench_workers_records_executor_stats(self, tmp_path):
        from repro.cli import main

        output = tmp_path / "BENCH_workers.json"
        code = main(
            [
                "bench",
                "--smoke",
                "--workers",
                "2",
                "--experiments",
                "fig7a",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        record = json.loads(output.read_text())
        [entry] = record["experiments"]
        assert entry["workers"] == 2
        assert entry["cache"]["workers"] == 2
        assert entry["cache"]["requests"] == entry["evaluations"]

    def test_bench_smoke_default_suite_is_every_registered_experiment(
        self, tmp_path
    ):
        """Without --experiments the bench times the whole registry, and
        every entry's smoke overrides fit it (two-level experiments need
        perfect-square capacities)."""
        from repro.api import available_experiments
        from repro.cli import main

        output = tmp_path / "BENCH_default.json"
        assert main(["bench", "--smoke", "--output", str(output)]) == 0
        record = json.loads(output.read_text())
        names = [entry["experiment"] for entry in record["experiments"]]
        assert names == available_experiments()
        for entry in record["experiments"]:
            assert entry["wall_seconds"] > 0, entry
            if entry["experiment"] in ("fig6", "fig9cd"):  # not request sweeps
                assert entry["cache"] is None, entry
            else:
                assert entry["cache"]["requests"] == entry["evaluations"], entry
                assert entry["cache"]["workers"] == entry["workers"], entry
        assert "python" not in record  # only python_version is written
        assert record["python_version"]

    def test_bench_entry_does_not_depend_on_what_ran_before_it(self, tmp_path):
        """fig10-two evaluates factories and mappings that table1-level2
        shares, yet table1-level2 records the same counters after it as
        alone: every entry runs on its own executor."""
        from repro.cli import main

        def table1_cache(experiments):
            output = tmp_path / "BENCH_order.json"
            argv = ["bench", "--smoke", "--experiments", experiments]
            assert main(argv + ["--output", str(output)]) == 0
            entries = json.loads(output.read_text())["experiments"]
            [entry] = [e for e in entries if e["experiment"] == "table1-level2"]
            return {
                key: entry["cache"][key]
                for key in (
                    "evaluations",
                    "factory_builds",
                    "factory_cache_hits",
                    "sim_cache_hits",
                    "requests",
                    "duplicate_hits",
                )
            }

        alone = table1_cache("table1-level2")
        assert table1_cache("fig10-two,table1-level2") == alone


# ----------------------------------------------------------------------
# The progress callback (the sweep service's window into a running plan)
# ----------------------------------------------------------------------
class TestSweepProgress:
    def collect(self, plan, resume=False, **executor_kwargs):
        events = []
        result = SweepExecutor(**executor_kwargs).run(
            plan, resume=resume, progress=events.append
        )
        return result, events

    def test_one_event_per_unique_request_covering_every_plan_index(self):
        plan = small_plan()
        result, events = self.collect(plan)
        assert len(events) == len(plan)  # no duplicates in the grid
        assert all(isinstance(event, SweepProgress) for event in events)
        assert all(event.total == len(plan) for event in events)
        covered = sorted(i for event in events for i in event.plan_indices)
        assert covered == list(range(len(plan)))

    def test_done_is_monotone_and_reaches_total(self):
        plan = small_plan()
        _, events = self.collect(plan)
        done = [event.done for event in events]
        assert done == sorted(done)
        assert done[-1] == len(plan)
        # Each event advances done by exactly the indices it resolves.
        deltas = [b - a for a, b in zip([0] + done, done)]
        assert deltas == [len(event.plan_indices) for event in events]

    def test_event_carries_the_resolving_evaluation(self):
        plan = small_plan()
        result, events = self.collect(plan)
        for event in events:
            for index in event.plan_indices:
                assert result.evaluations[index] == event.evaluation
                assert plan.requests[index] == event.request

    def test_duplicates_resolve_with_their_first_occurrence(self):
        request = EvaluationRequest(method="linear", capacity=2)
        other = EvaluationRequest(method="linear", capacity=3)
        plan = SweepPlan.from_requests([request, other, request, request])
        result, events = self.collect(plan)
        assert len(events) == 2  # one per unique request
        [dup_event] = [e for e in events if len(e.plan_indices) > 1]
        assert dup_event.plan_indices == (0, 2, 3)
        assert result.stats.duplicate_hits == 2

    def test_sources_match_stats_on_a_resumed_run(self, tmp_path):
        store = tmp_path / "store"
        plan = small_plan()
        seeded = SweepPlan.from_requests(list(plan)[:2])
        SweepExecutor(store=store).run(seeded)

        result, events = self.collect(plan, store=store, resume=True)
        by_source = {"store": 0, "evaluated": 0}
        for event in events:
            by_source[event.source] += 1
        assert by_source["store"] == result.stats.store_hits == 2
        assert by_source["evaluated"] == result.stats.evaluations == 2

    def test_parallel_run_fires_the_same_events(self, tmp_path):
        plan = small_plan()
        serial_result, serial_events = self.collect(plan)
        parallel_result, parallel_events = self.collect(
            plan, workers=2, store=tmp_path / "store"
        )
        assert len(parallel_events) == len(serial_events)
        assert [e.to_dict() for e in parallel_result.evaluations] == [
            e.to_dict() for e in serial_result.evaluations
        ]
        covered = sorted(
            i for event in parallel_events for i in event.plan_indices
        )
        assert covered == list(range(len(plan)))
        assert max(event.done for event in parallel_events) == len(plan)

    def test_callback_errors_abort_the_run(self):
        def explode(event):
            raise RuntimeError("observer failure")

        with pytest.raises(RuntimeError, match="observer failure"):
            SweepExecutor().run(small_plan(), progress=explode)

    def test_evaluation_error_surfaces_after_preceding_events(self):
        linear = get_mapper("linear")
        calls = {"n": 0}

        def flaky(factory, seed=0, context=None):
            calls["n"] += 1
            if calls["n"] > 2:
                raise RuntimeError("boom")
            return linear.place(factory, seed=seed, context=context)

        plan = SweepPlan.from_grid(methods=("flaky-progress",), capacities=(2, 3, 4))
        register_mapper(flaky, name="flaky-progress")
        try:
            events = []
            with pytest.raises(RuntimeError, match="boom"):
                SweepExecutor().run(plan, progress=events.append)
            assert [event.done for event in events] == [1, 2]
        finally:
            unregister_mapper("flaky-progress")
