"""Tests for the persistent result store and resumable sweep execution.

The contracts under test:

* :func:`repro.api.request_fingerprint` is a stable, schema-versioned
  content address — equal requests collide, different requests (and
  different schema versions) do not;
* :class:`repro.api.ResultStore` round-trips evaluations exactly, treats
  corrupt payloads as warned misses (never crashes, never wrong answers),
  expires only entries older than ``keep_days`` under ``gc``, and cleanly
  invalidates old entries on a schema bump;
* a :class:`~repro.api.SweepExecutor` run killed mid-plan and re-run with
  ``resume=True`` produces output **byte-identical** to an uninterrupted
  run while re-executing only the missing requests, with exact
  ``store_hits`` accounting;
* the sweep service reads through the store: a stored request is answered
  without building or simulating, and a fresh one is persisted.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.api import (
    EvaluationRequest,
    Pipeline,
    ResultStore,
    ResultStoreWarning,
    SweepExecutor,
    SweepPlan,
    register_mapper,
    request_fingerprint,
    unregister_mapper,
)
from repro.api.store import STORE_SCHEMA_VERSION, store_metadata
from repro.routing.simulator import SimulatorConfig
from repro.service import SweepService, WireFormatError

METHODS = ("linear", "graph_partition")
CAPACITIES = (2, 3)


def small_plan() -> SweepPlan:
    return SweepPlan.from_grid(methods=METHODS, capacities=CAPACITIES)


def a_request(**overrides) -> EvaluationRequest:
    payload = dict(method="linear", capacity=2)
    payload.update(overrides)
    return EvaluationRequest(**payload)


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
class TestRequestFingerprint:
    def test_equal_requests_equal_fingerprints(self):
        assert request_fingerprint(a_request()) == request_fingerprint(a_request())

    def test_distinct_requests_distinct_fingerprints(self):
        fingerprints = {
            request_fingerprint(a_request()),
            request_fingerprint(a_request(capacity=3)),
            request_fingerprint(a_request(method="graph_partition")),
            request_fingerprint(a_request(seed=1)),
            request_fingerprint(a_request(reuse=True)),
            request_fingerprint(
                a_request(sim_config=SimulatorConfig(max_candidates=3))
            ),
        }
        assert len(fingerprints) == 6

    def test_schema_version_changes_fingerprint(self):
        request = a_request()
        assert request_fingerprint(request, STORE_SCHEMA_VERSION) != (
            request_fingerprint(request, STORE_SCHEMA_VERSION + 1)
        )

    def test_fingerprint_is_hex_and_fixed_width(self):
        fingerprint = request_fingerprint(a_request())
        assert len(fingerprint) == 40
        int(fingerprint, 16)  # must be valid hex


# ----------------------------------------------------------------------
# Store round trips and counters
# ----------------------------------------------------------------------
class TestResultStoreBasics:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        request = a_request()
        evaluation = Pipeline().evaluate(request)
        fingerprint = store.put(request, evaluation, wall_seconds=0.25)
        assert store.path_for(fingerprint).is_file()
        restored = store.get(request)
        assert restored == evaluation
        assert (store.hits, store.misses, store.puts) == (1, 0, 1)

    def test_miss_on_empty_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.get(a_request()) is None
        assert store.misses == 1
        assert len(store) == 0

    def test_contains_does_not_move_counters(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        request = a_request()
        assert not store.contains(request)
        store.put(request, Pipeline().evaluate(request))
        assert store.contains(request)
        assert (store.hits, store.misses) == (0, 0)

    def test_payload_carries_provenance_metadata(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        request = a_request()
        fingerprint = store.put(request, Pipeline().evaluate(request), 1.5)
        payload = json.loads(store.path_for(fingerprint).read_text())
        assert payload["schema_version"] == STORE_SCHEMA_VERSION
        assert payload["fingerprint"] == fingerprint
        assert payload["request"]["method"] == "linear"
        meta = payload["meta"]
        assert meta["wall_seconds"] == 1.5
        assert meta["python_version"]
        assert meta["platform"]
        assert meta["cpu_count"] >= 1
        assert meta["created_unix"] > 0
        # git_sha may be None outside a checkout but the key must exist.
        assert "git_sha" in meta

    def test_store_metadata_helper_shape(self):
        meta = store_metadata(wall_seconds=2.0)
        assert set(meta) == {
            "git_sha",
            "python_version",
            "platform",
            "cpu_count",
            "wall_seconds",
            "created_unix",
            "created_utc",
        }


# ----------------------------------------------------------------------
# Corruption: skipped with a warning, never a crash or a wrong answer
# ----------------------------------------------------------------------
class TestStoreCorruption:
    def _stored(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        request = a_request()
        fingerprint = store.put(request, Pipeline().evaluate(request))
        return store, request, store.path_for(fingerprint)

    def test_truncated_payload_is_warned_miss(self, tmp_path):
        store, request, path = self._stored(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.warns(ResultStoreWarning):
            assert store.get(request) is None
        assert store.corrupt_skipped == 1

    def test_garbage_bytes_are_warned_miss(self, tmp_path):
        store, request, path = self._stored(tmp_path)
        path.write_bytes(b"\x00\xff garbage \x80")
        with pytest.warns(ResultStoreWarning):
            assert store.get(request) is None

    def test_valid_json_wrong_fingerprint_is_warned_miss(self, tmp_path):
        store, request, path = self._stored(tmp_path)
        payload = json.loads(path.read_text())
        payload["fingerprint"] = "0" * 40
        path.write_text(json.dumps(payload))
        with pytest.warns(ResultStoreWarning):
            assert store.get(request) is None

    def test_undecodable_result_is_warned_miss(self, tmp_path):
        store, request, path = self._stored(tmp_path)
        payload = json.loads(path.read_text())
        payload["result"] = {"latency": "not-an-evaluation"}
        path.write_text(json.dumps(payload))
        with pytest.warns(ResultStoreWarning):
            assert store.get(request) is None

    def test_non_object_payload_is_warned_miss(self, tmp_path):
        store, request, path = self._stored(tmp_path)
        path.write_text('["a", "list"]')
        with pytest.warns(ResultStoreWarning):
            assert store.get(request) is None

    def test_non_dict_result_field_is_warned_miss(self, tmp_path):
        """A correctly addressed entry whose result is not an object."""
        store, request, path = self._stored(tmp_path)
        payload = json.loads(path.read_text())
        payload["result"] = "not a dict"
        path.write_text(json.dumps(payload))
        with pytest.warns(ResultStoreWarning):
            assert store.get(request) is None

    def test_corrupt_entry_is_recomputed_through_service(self, tmp_path):
        """A service with a corrupt store recomputes and heals the entry."""
        store = ResultStore(tmp_path / "store")
        data = a_request().to_dict()
        reference = SweepService(store=store).evaluate(data)
        [(path, _)] = list(store.entries())  # the entry the service wrote
        path.write_text("{ truncated")
        service = SweepService(store=store)
        with pytest.warns(ResultStoreWarning):
            recomputed = service.evaluate(data)
        assert recomputed.payload == reference.payload
        assert recomputed.source == "evaluated"
        assert service.counters.store_hits == 0
        # The put after recomputation repaired the entry.
        healed = SweepService(store=store)
        assert healed.evaluate(data).payload == reference.payload
        assert healed.counters.store_hits == 1

    def test_status_counts_corrupt_entries(self, tmp_path):
        store, _, path = self._stored(tmp_path)
        path.write_text("not json")
        status = store.status()
        assert status["entries"] == 1
        assert status["corrupt"] == 1
        # Maintenance scans report corruption without moving the lookup
        # counters (status/gc are not lookups).
        store.gc(keep_days=9999, dry_run=True)
        assert store.corrupt_skipped == 0
        # Session counters are not store statistics: not in the payload.
        assert "hits" not in status and "puts" not in status


# ----------------------------------------------------------------------
# Garbage collection
# ----------------------------------------------------------------------
class TestStoreGc:
    def test_gc_removes_only_entries_older_than_keep_days(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        pipeline = Pipeline()
        old_request = a_request(seed=1)
        new_request = a_request(seed=2)
        old_fingerprint = store.put(old_request, pipeline.evaluate(old_request))
        store.put(new_request, pipeline.evaluate(new_request))
        # Age the first entry by rewriting its recorded creation time.
        path = store.path_for(old_fingerprint)
        payload = json.loads(path.read_text())
        payload["meta"]["created_unix"] -= 10 * 86400
        path.write_text(json.dumps(payload))

        report = store.gc(keep_days=7)
        assert report.removed == [old_fingerprint]
        assert report.kept == 1
        assert store.get(old_request) is None
        assert store.get(new_request) is not None

    def test_gc_dry_run_removes_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        request = a_request()
        fingerprint = store.put(request, Pipeline().evaluate(request))
        payload = json.loads(store.path_for(fingerprint).read_text())
        future = payload["meta"]["created_unix"] + 10 * 86400
        report = store.gc(keep_days=7, dry_run=True, now=future)
        assert len(report.removed) == 1 and report.dry_run
        assert store.contains(request)

    def test_gc_keep_days_zero_removes_everything_older_than_now(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        request = a_request()
        fingerprint = store.put(request, Pipeline().evaluate(request))
        payload = json.loads(store.path_for(fingerprint).read_text())
        created = payload["meta"]["created_unix"]
        report = store.gc(keep_days=0, now=created + 1)
        assert report.removed == [fingerprint]
        assert len(store) == 0

    def test_gc_ages_corrupt_entries_by_mtime(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        request = a_request()
        fingerprint = store.put(request, Pipeline().evaluate(request))
        path = store.path_for(fingerprint)
        path.write_text("garbage")
        stamp = path.stat().st_mtime - 30 * 86400
        os.utime(path, (stamp, stamp))
        report = store.gc(keep_days=7)
        assert report.removed == [fingerprint]

    def test_gc_rejects_negative_keep_days(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path / "store").gc(keep_days=-1)


# ----------------------------------------------------------------------
# Schema versioning
# ----------------------------------------------------------------------
class TestSchemaBump:
    def test_schema_bump_invalidates_old_entries_cleanly(self, tmp_path):
        root = tmp_path / "store"
        request = a_request()
        evaluation = Pipeline().evaluate(request)
        old_store = ResultStore(root, schema_version=STORE_SCHEMA_VERSION)
        old_store.put(request, evaluation)

        new_store = ResultStore(root, schema_version=STORE_SCHEMA_VERSION + 1)
        # The old entry is unreachable under the new schema: clean miss, no
        # warning (the fingerprint simply addresses a different file).
        assert new_store.get(request) is None
        assert new_store.misses == 1
        new_store.put(request, evaluation)
        assert new_store.get(request) == evaluation
        # Both generations coexist on disk; status reports the stale one.
        assert len(new_store) == 2
        status = new_store.status()
        assert status["stale_schema"] == 1
        assert status["corrupt"] == 0

    def test_mislabelled_schema_version_in_payload_is_warned_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        request = a_request()
        fingerprint = store.put(request, Pipeline().evaluate(request))
        path = store.path_for(fingerprint)
        payload = json.loads(path.read_text())
        payload["schema_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.warns(ResultStoreWarning):
            assert store.get(request) is None


# ----------------------------------------------------------------------
# Service integration: read-through
# ----------------------------------------------------------------------
class TestServiceStore:
    def test_service_probes_store_before_building(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        data = a_request().to_dict()
        warm = SweepService(store=store)
        reference = warm.evaluate(data)
        assert reference.source == "evaluated"
        assert warm.counters.store_hits == 0
        assert store.puts == 1

        # A completely fresh service answers from the store: no factory
        # build, no simulation, exact store_hits accounting.
        cold = SweepService(store=store)
        outcome = cold.evaluate(data)
        assert outcome.payload == reference.payload
        assert outcome.source == "store"
        assert cold.counters.store_hits == 1
        assert cold.pipeline.stats.factory_builds == 0
        assert cold.pipeline.stats.evaluations == 0
        assert cold.pipeline.stats.sim_cache_hits == 0

    def test_store_hit_result_is_byte_identical(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        request = a_request(method="graph_partition", capacity=3)
        reference = Pipeline().evaluate(request)
        SweepService(store=store).evaluate(request.to_dict())
        stored = SweepService(store=store).evaluate(request.to_dict())
        assert stored.source == "store"
        assert json.dumps(stored.payload, sort_keys=True) == json.dumps(
            reference.to_dict(), sort_keys=True
        )

    def test_unknown_mapper_fails_before_store_probe(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        service = SweepService(store=store)
        with pytest.raises(WireFormatError):
            service.evaluate(a_request(method="no-such-mapper").to_dict())
        assert store.hits == store.misses == 0


# ----------------------------------------------------------------------
# Executor integration: resumable sweeps
# ----------------------------------------------------------------------
class TestExecutorResume:
    def test_resume_requires_store(self, tmp_path):
        with pytest.raises(ValueError):
            SweepExecutor(resume=True)
        with pytest.raises(ValueError):
            SweepExecutor().run(small_plan(), resume=True)

    def test_store_accepts_path_and_instance(self, tmp_path):
        from_path = SweepExecutor(store=tmp_path / "a")
        assert isinstance(from_path.store, ResultStore)
        instance = ResultStore(tmp_path / "b")
        assert SweepExecutor(store=instance).store is instance

    def test_resumed_rerun_is_byte_identical_with_exact_accounting(self, tmp_path):
        plan = small_plan()
        baseline = SweepExecutor(workers=1).run(plan)
        blob = json.dumps(baseline.to_dict(), sort_keys=True)

        store = ResultStore(tmp_path / "store")
        first = SweepExecutor(workers=1, store=store).run(plan, resume=True)
        assert json.dumps(first.to_dict(), sort_keys=True) == blob
        assert first.stats.store_hits == 0
        assert first.stats.evaluations == len(plan)

        second = SweepExecutor(workers=1, store=store).run(plan, resume=True)
        assert json.dumps(second.to_dict(), sort_keys=True) == blob
        assert second.stats.store_hits == len(plan)
        assert second.stats.evaluations == 0
        # Served from disk: nothing built, nothing simulated or memo-probed.
        assert second.stats.factory_builds == 0
        assert second.stats.sim_cache_hits == 0
        assert second.stats.requests == (
            second.stats.duplicate_hits
            + second.stats.store_hits
            + second.stats.evaluations
        )

    def test_killed_sweep_resumes_where_it_died(self, tmp_path):
        """The acceptance contract: kill mid-plan, resume, byte-identical.

        A mapper that works for a prefix of the plan and then raises stands
        in for the killed process: the store must retain exactly the prefix
        (results are persisted as they complete), and the resumed run must
        re-execute only the missing requests.
        """
        from repro.api import get_mapper

        linear = get_mapper("linear")
        calls = {"n": 0}

        def flaky(factory, seed=0, context=None):
            calls["n"] += 1
            if calls["n"] > 2:
                raise RuntimeError("simulated crash")
            return linear.place(factory, seed=seed, context=context)

        plan = SweepPlan.from_grid(methods=("flaky-linear",), capacities=(2, 3, 4, 5))
        register_mapper(flaky, name="flaky-linear")
        try:
            store = ResultStore(tmp_path / "store")
            with pytest.raises(RuntimeError, match="simulated crash"):
                SweepExecutor(workers=1, store=store).run(plan, resume=True)
            assert len(store) == 2  # the prefix survived the crash

            calls["n"] = -100  # "restart with fixed code": never raise again
            resumed = SweepExecutor(workers=1, store=store).run(plan, resume=True)
            assert resumed.stats.store_hits == 2
            assert resumed.stats.evaluations == 2

            uninterrupted = SweepExecutor(workers=1).run(plan)
            assert json.dumps(resumed.to_dict(), sort_keys=True) == json.dumps(
                uninterrupted.to_dict(), sort_keys=True
            )
        finally:
            unregister_mapper("flaky-linear")

    def test_killed_sweep_resumes_batched(self, tmp_path):
        """``--batch`` resume: the stored prefix is served from the store
        and only the misses reach the batched simulator core, byte-identical
        to the unbatched resumed run and to an uninterrupted baseline.
        """
        from repro.api import get_mapper

        linear = get_mapper("linear")
        calls = {"n": 0}

        def flaky(factory, seed=0, context=None):
            calls["n"] += 1
            if calls["n"] > 2:
                raise RuntimeError("simulated crash")
            return linear.place(factory, seed=seed, context=context)

        plan = SweepPlan.from_grid(methods=("flaky-batch",), capacities=(2, 3, 4, 5))
        register_mapper(flaky, name="flaky-batch")
        try:
            store = ResultStore(tmp_path / "store")
            with pytest.raises(RuntimeError, match="simulated crash"):
                SweepExecutor(workers=1, store=store).run(plan, resume=True)
            assert len(store) == 2  # partial prefix survived the crash

            calls["n"] = -100  # "restart with fixed code": never raise again
            resumed = SweepExecutor(store=store, batch=True).run(plan, resume=True)
            assert resumed.stats.store_hits == 2
            assert resumed.stats.evaluations == 2  # only the misses batched

            unbatched = SweepExecutor(workers=1).run(plan)
            assert json.dumps(resumed.to_dict(), sort_keys=True) == json.dumps(
                unbatched.to_dict(), sort_keys=True
            )
        finally:
            unregister_mapper("flaky-batch")

    def test_parallel_worker_failure_persists_completed_work(self, tmp_path):
        """A failing request must not throw away its siblings' results.

        The pool shutdown runs every submitted request to completion, so
        the executor drains completed futures into the store before
        re-raising — a resumed run then re-executes only the failed point.
        """
        from repro.api import get_mapper

        linear = get_mapper("linear")

        def capacity_bomb(factory, seed=0, context=None):
            if factory.spec.k == 3:
                raise RuntimeError("boom at capacity 3")
            return linear.place(factory, seed=seed, context=context)

        register_mapper(capacity_bomb, name="capacity-bomb")
        try:
            plan = SweepPlan.from_grid(
                methods=("capacity-bomb",), capacities=(2, 3, 4, 5)
            )
            store = ResultStore(tmp_path / "store")
            with pytest.raises(RuntimeError, match="boom at capacity 3"):
                SweepExecutor(workers=2, store=store).run(plan)
            # Every request except the failing one was persisted.
            assert len(store) == 3
            resumed = SweepExecutor(workers=1, store=store)
            with pytest.raises(RuntimeError, match="boom at capacity 3"):
                resumed.run(plan, resume=True)
            stats = resumed.store.hits  # 3 prefix hits before the bomb
            assert stats == 3
        finally:
            unregister_mapper("capacity-bomb")

    def test_parallel_resume_skips_stored_prefix(self, tmp_path):
        plan = SweepPlan.from_grid(
            methods=METHODS, capacities=CAPACITIES, seeds=(0, 1)
        )
        baseline = json.dumps(
            SweepExecutor(workers=1).run(plan).to_dict(), sort_keys=True
        )
        store = ResultStore(tmp_path / "store")
        prefix = SweepPlan.from_requests(list(plan)[:3])
        SweepExecutor(workers=1, store=store).run(prefix)
        resumed = SweepExecutor(workers=2, store=store).run(plan, resume=True)
        assert resumed.stats.store_hits == 3
        assert resumed.stats.evaluations == len(plan) - 3
        assert json.dumps(resumed.to_dict(), sort_keys=True) == baseline

    def test_duplicates_still_count_as_duplicates_not_store_hits(self, tmp_path):
        base = list(small_plan())
        plan = SweepPlan.from_requests(base + [base[0], base[0]])
        store = ResultStore(tmp_path / "store")
        executor = SweepExecutor(workers=1, store=store)
        executor.run(SweepPlan.from_requests(base[:1]))
        stats = executor.run(plan, resume=True).stats
        assert stats.duplicate_hits == 2
        assert stats.store_hits == 1
        assert stats.evaluations == len(base) - 1
        assert stats.requests == (
            stats.duplicate_hits + stats.store_hits + stats.evaluations
        )

    def test_store_identity_carries_effective_sim_config(self, tmp_path):
        """Two executors with different default configs must not alias.

        A request with ``sim_config=None`` inherits the executor default at
        evaluation time, so the store fingerprint must carry the *resolved*
        config: resuming under a different default must recompute, not
        serve the other configuration's numbers.
        """
        store = ResultStore(tmp_path / "store")
        plan = SweepPlan.from_grid(methods=("linear",), capacities=(2,))
        config_a = SimulatorConfig(max_candidates=8, allow_detour=True)
        config_b = SimulatorConfig(max_candidates=1)
        run_a = SweepExecutor(workers=1, sim_config=config_a, store=store).run(
            plan, resume=True
        )
        run_b = SweepExecutor(workers=1, sim_config=config_b, store=store).run(
            plan, resume=True
        )
        assert run_b.stats.store_hits == 0  # config_a's entry must not serve
        reference_b = SweepExecutor(workers=1, sim_config=config_b).run(plan)
        assert run_b.evaluations == reference_b.evaluations
        assert len(store) == 2  # one entry per effective configuration

        # Same effective config expressed implicitly vs explicitly is ONE
        # identity: a request carrying config_a hits the entry stored by
        # the executor whose *default* was config_a.
        explicit = SweepPlan.from_grid(
            methods=("linear",), capacities=(2,), sim_config=config_a
        )
        resumed = SweepExecutor(workers=1, store=store).run(explicit, resume=True)
        assert resumed.stats.store_hits == 1
        assert resumed.evaluations == run_a.evaluations

    def test_service_store_identity_carries_effective_sim_config(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        data = a_request().to_dict()
        config = SimulatorConfig(max_candidates=1)
        SweepService(store=store, sim_config=config).evaluate(data)
        other = SweepService(
            store=store, sim_config=SimulatorConfig(max_candidates=8)
        )
        assert other.evaluate(data).source == "evaluated"
        assert other.counters.store_hits == 0
        # The default-config service likewise gets its own entry.
        default = SweepService(store=store)
        assert default.evaluate(data).source == "evaluated"
        assert default.counters.store_hits == 0
        assert len(store) == 3

    def test_failed_store_write_warns_but_never_kills_the_sweep(
        self, tmp_path, monkeypatch
    ):
        """The store is a pure optimization: a full disk costs persistence
        of a result, never the sweep that computed it."""
        import repro.api.store as store_module

        store = ResultStore(tmp_path / "store")
        plan = small_plan()
        reference = SweepExecutor(workers=1).run(plan)

        def disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(store_module, "atomic_write_json", disk_full)
        executor = SweepExecutor(workers=1, store=store)
        with pytest.warns(ResultStoreWarning):
            result = executor.run(plan, resume=True)
        assert result.evaluations == reference.evaluations
        assert result.stats.evaluations == len(plan)
        assert len(store) == 0  # nothing persisted, nothing broken

    def test_without_resume_store_is_write_only(self, tmp_path):
        plan = small_plan()
        store = ResultStore(tmp_path / "store")
        executor = SweepExecutor(workers=1, store=store)
        cold = executor.run(plan)
        assert len(cold.evaluations) == len(plan)
        assert len(store) == len(plan)
        again = executor.run(plan)  # resume defaults to False: recompute
        assert again.stats.store_hits == 0
        assert again.stats.evaluations == len(plan)
        assert len(store) == len(plan)


# ----------------------------------------------------------------------
# Concurrency: the store is shared by HTTP handler threads, the sweep
# service job worker, and parallel executors — all at once
# ----------------------------------------------------------------------
class TestStoreConcurrency:
    REQUESTS_PER_THREAD = 25

    def _hammer(self, store, requests, evaluations, thread_count=8):
        """N threads interleave put/try_put/get over overlapping requests."""
        import threading

        errors = []
        observed = [[] for _ in range(thread_count)]
        barrier = threading.Barrier(thread_count)

        def worker(worker_index):
            try:
                barrier.wait()
                for step in range(self.REQUESTS_PER_THREAD):
                    pick = (worker_index + step) % len(requests)
                    request, evaluation = requests[pick], evaluations[pick]
                    op = (worker_index + step) % 3
                    if op == 0:
                        store.put(request, evaluation)
                    elif op == 1:
                        store.try_put(request, evaluation)
                    else:
                        observed[worker_index].append(
                            (pick, store.get(request))
                        )
            except Exception as error:  # pragma: no cover - the assertion
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(thread_count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        return errors, observed

    def test_hammered_store_never_tears_or_loses_entries(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        requests = [
            a_request(),
            a_request(capacity=3),
            a_request(method="graph_partition"),
            a_request(method="graph_partition", capacity=3),
        ]
        pipeline = Pipeline()
        evaluations = [pipeline.evaluate(request) for request in requests]

        errors, observed = self._hammer(store, requests, evaluations)
        assert errors == []

        # No lost entries: every request hammered is present and exact.
        assert len(store) == len(requests)
        for request, evaluation in zip(requests, evaluations):
            assert store.get(request) == evaluation
        # No torn reads: every concurrent get saw nothing or the one true
        # value for that fingerprint — never corrupt bytes (atomic
        # temp-file + rename means a reader can't observe a partial write).
        assert store.corrupt_skipped == 0
        for per_thread in observed:
            for pick, result in per_thread:
                assert result is None or result == evaluations[pick]

    def test_concurrent_writers_one_winner_per_fingerprint(self, tmp_path):
        import threading

        store = ResultStore(tmp_path / "store")
        request = a_request()
        evaluation = Pipeline().evaluate(request)
        thread_count = 8
        barrier = threading.Barrier(thread_count)
        fingerprints = []
        lock = threading.Lock()

        def writer():
            barrier.wait()
            fingerprint = store.put(request, evaluation)
            with lock:
                fingerprints.append(fingerprint)

        threads = [
            threading.Thread(target=writer) for _ in range(thread_count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)

        assert len(set(fingerprints)) == 1
        assert len(store) == 1  # last atomic rename wins; never a dup
        assert store.get(request) == evaluation
        # The payload on disk is whole, parseable JSON (no interleaving).
        payload = json.loads(store.path_for(fingerprints[0]).read_text())
        assert payload["fingerprint"] == fingerprints[0]

    def test_uncounted_read_keeps_a_concurrent_lookup_count(
        self, tmp_path, monkeypatch
    ):
        """A counted get landing during contains() keeps its hit."""
        store = ResultStore(tmp_path / "store")
        probed, other = a_request(), a_request(capacity=3)
        store.put(other, Pipeline().evaluate(other))
        read_payload = store._read_payload
        concurrent = []

        def read_with_a_concurrent_get(path, *args, **kwargs):
            if not concurrent:  # another thread's lookup, mid-read
                concurrent.append(None)
                concurrent[0] = store.get(other)
            return read_payload(path, *args, **kwargs)

        monkeypatch.setattr(store, "_read_payload", read_with_a_concurrent_get)
        assert not store.contains(probed)
        assert concurrent[0] is not None
        assert (store.hits, store.misses) == (1, 0)

    def test_concurrent_lookups_lose_no_count(self, tmp_path):
        import sys
        import threading

        store = ResultStore(tmp_path / "store")
        stored, absent = a_request(), a_request(capacity=3)
        store.put(stored, Pipeline().evaluate(stored))
        thread_count, rounds = 8, 100
        barrier = threading.Barrier(thread_count)

        def reader():
            barrier.wait()
            for _ in range(rounds):
                store.get(stored)
                store.get(absent)
                store.contains(stored)  # a reporting read: counts nothing

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(thread_count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert store.hits == store.misses == thread_count * rounds
