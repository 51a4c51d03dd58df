"""Tests for the distributed sweep layer: sharding, merge, work stealing.

The contract under test, end to end: **any union of shard stores —
disjoint, overlapping, duplicated, raced, or killed mid-run and resumed —
serializes byte-identical to one uninterrupted sweep.**
"""

from __future__ import annotations

import json

import pytest

from repro.api import (
    ClaimDir,
    MergeConflictError,
    ResultStore,
    ResultStoreWarning,
    ShardSpec,
    SweepExecutor,
    SweepPlan,
    get_mapper,
    load_shard_file,
    plan_fingerprint,
    register_mapper,
    run_shard,
    shard_specs,
    unregister_mapper,
    write_shard_files,
)
from repro.api.sharding import ShardRunResult
from repro.cli import main
from repro.service.jobs import JobManager
from repro.service.wire import WireFormatError, decode_shard_spec


def small_plan(capacities=(2, 3, 4)) -> SweepPlan:
    return SweepPlan.from_grid(methods=("linear", "random"), capacities=capacities)


def run_output(store, plan) -> str:
    """The canonical serialized sweep output, resolved purely from a store."""
    result = SweepExecutor(store=store).run(plan, resume=True)
    assert result.stats.evaluations == 0, "store did not cover the plan"
    return json.dumps(result.to_dict(), sort_keys=True)


def baseline_output(plan) -> str:
    return json.dumps(SweepExecutor().run(plan).to_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# ShardSpec: partitioning and identity
# ----------------------------------------------------------------------
class TestShardSpec:
    @pytest.mark.parametrize("strategy", ["contiguous", "strided"])
    @pytest.mark.parametrize("total", [0, 1, 5, 6, 7, 20])
    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_partition_covers_every_position_exactly_once(
        self, strategy, total, count
    ):
        covered = sorted(
            position
            for spec in shard_specs(count, strategy)
            for position in spec.plan_indices(total)
        )
        assert covered == list(range(total))

    def test_contiguous_blocks_are_balanced(self):
        sizes = [len(s.plan_indices(10)) for s in shard_specs(3, "contiguous")]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_strided_samples_whole_range(self):
        assert ShardSpec(1, 3, "strided").plan_indices(7) == (1, 4)

    def test_validation(self):
        with pytest.raises(ValueError, match="count"):
            ShardSpec(0, 0)
        with pytest.raises(ValueError, match="index"):
            ShardSpec(3, 3)
        with pytest.raises(ValueError, match="strategy"):
            ShardSpec(0, 1, "zigzag")

    def test_round_trip(self):
        spec = ShardSpec(2, 5, "strided")
        assert ShardSpec.from_dict(spec.to_dict()) == spec

    def test_fingerprints_distinguish_piece_plan_and_strategy(self):
        plan = small_plan()
        other = small_plan(capacities=(2, 3, 5))
        fp, other_fp = plan_fingerprint(plan), plan_fingerprint(other)
        assert fp != other_fp
        ids = {
            ShardSpec(i, 3, strategy).fingerprint(fp)
            for i in range(3)
            for strategy in ("contiguous", "strided")
        }
        assert len(ids) == 6  # every piece/strategy distinct
        assert ShardSpec(0, 3).fingerprint(fp) != ShardSpec(0, 3).fingerprint(
            other_fp
        )
        # Deterministic: same inputs, same identity (cross-machine contract).
        assert ShardSpec(0, 3).fingerprint(fp) == ShardSpec(0, 3).fingerprint(fp)

    def test_subplan_preserves_order(self):
        plan = small_plan()
        sub = ShardSpec(1, 2, "strided").subplan(plan)
        assert [r.to_dict() for r in sub] == [
            plan[i].to_dict() for i in ShardSpec(1, 2, "strided").plan_indices(len(plan))
        ]


class TestShardFiles:
    def test_round_trip(self, tmp_path):
        plan = small_plan()
        paths = write_shard_files(plan, 3, tmp_path, strategy="strided")
        assert [p.name for p in paths] == [
            "shard-00-of-3.json",
            "shard-01-of-3.json",
            "shard-02-of-3.json",
        ]
        loaded_plan, spec = load_shard_file(paths[2])
        assert spec == ShardSpec(2, 3, "strided")
        assert plan_fingerprint(loaded_plan) == plan_fingerprint(plan)

    def test_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "not-a-shard.json"
        path.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(ValueError, match="not a shard file"):
            load_shard_file(path)

    def test_rejects_stale_fingerprint(self, tmp_path):
        plan = small_plan()
        [path, *_] = write_shard_files(plan, 2, tmp_path)
        payload = json.loads(path.read_text())
        payload["plan_fingerprint"] = "0" * 40
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="different plan"):
            load_shard_file(path)


# ----------------------------------------------------------------------
# Work-stealing claims
# ----------------------------------------------------------------------
class TestClaimDir:
    def test_race_has_one_winner(self, tmp_path):
        a = ClaimDir(tmp_path, owner="shard-a")
        b = ClaimDir(tmp_path, owner="shard-b")
        assert a.claim("f" * 40) == "won"
        assert b.claim("f" * 40) == "theirs"  # lost the race
        assert a.claim("f" * 40) == "ours"  # crash-resume reclaims
        assert a.owner_of("f" * 40) == "shard-a"
        assert len(a) == 1

    def test_unreadable_claim_stays_claimed(self, tmp_path):
        claims = ClaimDir(tmp_path, owner="shard-a")
        claims.path_for("a" * 40).parent.mkdir(parents=True, exist_ok=True)
        claims.path_for("a" * 40).write_text("{not json")
        with pytest.warns(ResultStoreWarning, match="unreadable claim"):
            assert claims.claim("a" * 40) == "theirs"


# ----------------------------------------------------------------------
# run_shard + merge: the byte-identity invariant
# ----------------------------------------------------------------------
class TestShardMergeIdentity:
    @pytest.mark.parametrize("strategy", ["contiguous", "strided"])
    def test_disjoint_shards_merge_to_identical_output(self, tmp_path, strategy):
        plan = small_plan()
        stores = []
        for spec in shard_specs(3, strategy):
            store = ResultStore(tmp_path / f"s{spec.index}")
            result = run_shard(plan, spec, store)  # no claim dir: pure partition
            assert result.stolen == [] and result.yielded == []
            assert result.own == list(spec.plan_indices(len(plan)))
            stores.append(store)
        merged = ResultStore(tmp_path / "merged")
        report = merged.merge([s.root for s in stores])
        assert report.merged == len(plan)
        assert report.conflicts == 0
        assert run_output(merged, plan) == baseline_output(plan)

    def test_overlapping_shards_are_identical_duplicates(self, tmp_path):
        plan = small_plan()
        # Both "shards" run the whole plan: total overlap, zero conflicts.
        a = ResultStore(tmp_path / "a")
        b = ResultStore(tmp_path / "b")
        run_shard(plan, ShardSpec(0, 1), a)
        run_shard(plan, ShardSpec(0, 1), b)
        merged = ResultStore(tmp_path / "merged")
        report = merged.merge([a.root, b.root])
        assert report.merged == len(plan)
        assert report.identical == len(plan)  # second source all duplicates
        assert report.conflicts == 0
        assert run_output(merged, plan) == baseline_output(plan)

    def test_duplicate_points_across_shards(self, tmp_path):
        # The same request appears at several plan positions spanning shard
        # boundaries; ownership follows the first occurrence, duplicates
        # elsewhere are dedup hits, and the merged output still matches.
        base = small_plan(capacities=(2, 3))
        plan = SweepPlan.from_requests(list(base) + list(base))
        stores = []
        for spec in shard_specs(2, "contiguous"):
            store = ResultStore(tmp_path / f"s{spec.index}")
            run_shard(plan, spec, store)
            stores.append(store)
        merged = ResultStore(tmp_path / "merged")
        merged.merge([s.root for s in stores])
        assert run_output(merged, plan) == baseline_output(plan)

    def test_work_stealing_covers_unstarted_shards(self, tmp_path):
        plan = small_plan()
        claims = tmp_path / "claims"
        first = ResultStore(tmp_path / "s0")
        result = run_shard(plan, ShardSpec(0, 3, "strided"), first, claim_dir=claims)
        # Running alone, shard 0 claims and steals every foreign point.
        assert len(result.own) + len(result.stolen) == len(plan)
        late = ResultStore(tmp_path / "s1")
        late_result = run_shard(
            plan, ShardSpec(1, 3, "strided"), late, claim_dir=claims
        )
        # Everything was already claimed: the late shard yields its points.
        assert late_result.yielded == late_result.own
        assert late_result.stats.evaluations == 0
        merged = ResultStore(tmp_path / "merged")
        merged.merge([first.root, late.root])
        assert run_output(merged, plan) == baseline_output(plan)

    def test_no_steal_claims_but_keeps_partition(self, tmp_path):
        plan = small_plan()
        store = ResultStore(tmp_path / "s0")
        spec = ShardSpec(0, 3, "strided")
        result = run_shard(
            plan, spec, store, claim_dir=tmp_path / "claims", steal=False
        )
        assert result.stolen == []
        assert result.own == list(spec.plan_indices(len(plan)))

    def test_killed_shard_resumes_and_merge_is_identical(self, tmp_path):
        """The CI shard-merge scenario at API level: SIGKILL one shard
        mid-run (simulated by a mapper that starts failing), resume it with
        the same arguments, merge all shards, byte-identical output."""
        linear = get_mapper("linear")
        calls = {"n": 0}

        def flaky(factory, seed=0, context=None):
            calls["n"] += 1
            if calls["n"] > 1:
                raise RuntimeError("simulated kill")
            return linear.place(factory, seed=seed, context=context)

        plan = SweepPlan.from_grid(
            methods=("flaky-shard",), capacities=(2, 3, 4, 5)
        )
        register_mapper(flaky, name="flaky-shard")
        try:
            claims = tmp_path / "claims"
            spec = ShardSpec(0, 2, "contiguous")
            store = ResultStore(tmp_path / "s0")
            with pytest.raises(RuntimeError, match="simulated kill"):
                run_shard(plan, spec, store, claim_dir=claims)
            assert len(store) == 1  # the pre-kill prefix survived

            calls["n"] = -100  # "restart": the mapper works again
            resumed = run_shard(plan, spec, store, claim_dir=claims)
            # Own claims from the killed run are reclaimed, not yielded.
            assert resumed.yielded == []
            assert resumed.stats.store_hits == 1

            other = ResultStore(tmp_path / "s1")
            run_shard(plan, ShardSpec(1, 2, "contiguous"), other, claim_dir=claims)
            merged = ResultStore(tmp_path / "merged")
            merged.merge([store.root, other.root])
            assert run_output(merged, plan) == baseline_output(plan)
        finally:
            unregister_mapper("flaky-shard")

    def test_shard_run_result_round_trip(self, tmp_path):
        plan = small_plan()
        result = run_shard(plan, ShardSpec(0, 2), ResultStore(tmp_path / "s"))
        restored = ShardRunResult.from_dict(result.to_dict())
        assert restored.to_dict() == result.to_dict()

    def test_progress_events_cover_every_point(self, tmp_path):
        plan = small_plan()
        events = []
        run_shard(
            plan,
            ShardSpec(0, 1),
            ResultStore(tmp_path / "s"),
            progress=events.append,
        )
        assert [e.done for e in events] == list(range(1, len(plan) + 1))
        assert sorted(e.plan_index for e in events) == list(range(len(plan)))
        assert all(e.phase == "own" and e.source == "evaluated" for e in events)


class TestShardStats:
    def test_workers_counts_the_processes_that_evaluated(self, tmp_path):
        # One request starts no pool, so one process evaluates it whatever
        # was asked for; a shard reports workers as the executor does.
        plan = SweepPlan.from_grid(methods=("linear",), capacities=(2,))
        store = ResultStore(tmp_path / "s")
        result = run_shard(plan, ShardSpec(0, 1), store, workers=4)
        assert SweepExecutor(workers=4).run(plan).stats.workers == 1
        assert result.stats.workers == 1
        # A rerun answered from the store evaluates nothing at all.
        rerun = run_shard(plan, ShardSpec(0, 1), store, workers=4)
        assert rerun.stats.evaluations == 0 and rerun.stats.workers == 1


# ----------------------------------------------------------------------
# Merge semantics: conflicts, corruption, stale schemas
# ----------------------------------------------------------------------
class TestMergeSemantics:
    def seed_store(self, root, capacities=(2, 3)):
        store = ResultStore(root)
        plan = small_plan(capacities=capacities)
        SweepExecutor(store=store).run(plan, resume=True)
        return store, plan

    def test_conflict_raises_by_default(self, tmp_path):
        source, plan = self.seed_store(tmp_path / "src")
        merged = ResultStore(tmp_path / "dst")
        merged.merge([source.root])
        # Corrupt one merged payload's result (valid JSON, correct label).
        path = next(iter(sorted(merged.root.glob("*/*.json"))))
        payload = json.loads(path.read_text())
        payload["result"]["latency"] = 10**9
        path.write_text(json.dumps(payload))
        with pytest.raises(MergeConflictError) as info:
            merged.merge([source.root])
        assert info.value.fingerprint == path.stem
        assert "--prefer-newest" in str(info.value)

    def test_prefer_newest_resolves_conflicts(self, tmp_path):
        source, plan = self.seed_store(tmp_path / "src")
        merged = ResultStore(tmp_path / "dst")
        merged.merge([source.root])
        path = next(iter(sorted(merged.root.glob("*/*.json"))))
        payload = json.loads(path.read_text())
        payload["result"]["latency"] = 10**9
        payload["meta"]["created_unix"] = 0.0  # corrupted copy is older
        path.write_text(json.dumps(payload))
        report = merged.merge([source.root], prefer_newest=True)
        assert report.conflicts == 1
        assert report.sources[0].preferred == 1
        # The honest (newer) source payload won: output matches baseline.
        assert run_output(merged, plan) == baseline_output(plan)

    def test_corrupt_source_entry_skipped_with_warning(self, tmp_path):
        source, plan = self.seed_store(tmp_path / "src")
        bad = source.root / "ee"
        bad.mkdir(exist_ok=True)
        (bad / ("e" * 40 + ".json")).write_text("{torn write")
        merged = ResultStore(tmp_path / "dst")
        with pytest.warns(ResultStoreWarning, match="unreadable"):
            report = merged.merge([source.root])
        assert report.sources[0].bad_entries == 1
        assert report.merged == len(plan)
        assert run_output(merged, plan) == baseline_output(plan)

    def test_mislabelled_source_entry_skipped(self, tmp_path):
        source, plan = self.seed_store(tmp_path / "src")
        path = next(iter(sorted(source.root.glob("*/*.json"))))
        payload = json.loads(path.read_text())
        relabelled = path.parent / ("d" * 40 + ".json")
        relabelled.write_text(json.dumps(payload))
        merged = ResultStore(tmp_path / "dst")
        with pytest.warns(ResultStoreWarning, match="mislabelled"):
            report = merged.merge([source.root])
        assert report.sources[0].bad_entries == 1

    def test_stale_schema_entries_excluded(self, tmp_path):
        source, plan = self.seed_store(tmp_path / "src")
        path = next(iter(sorted(source.root.glob("*/*.json"))))
        payload = json.loads(path.read_text())
        payload["schema_version"] = -1
        path.write_text(json.dumps(payload))
        merged = ResultStore(tmp_path / "dst")
        report = merged.merge([source.root])
        assert report.sources[0].stale_schema == 1
        assert report.merged == len(plan) - 1

    def test_self_merge_rejected(self, tmp_path):
        store, _ = self.seed_store(tmp_path / "src")
        with pytest.raises(ValueError, match="itself"):
            store.merge([store.root])

    def test_report_round_trip(self, tmp_path):
        source, _ = self.seed_store(tmp_path / "src")
        merged = ResultStore(tmp_path / "dst")
        report = merged.merge([source.root])
        from repro.api import MergeReport

        assert MergeReport.from_dict(report.to_dict()).to_dict() == report.to_dict()


# ----------------------------------------------------------------------
# Wire decoding and shard jobs
# ----------------------------------------------------------------------
class TestDecodeShardSpec:
    def test_valid(self):
        spec = decode_shard_spec({"index": 1, "count": 3, "strategy": "strided"})
        assert spec == ShardSpec(1, 3, "strided")
        assert decode_shard_spec({"index": 0, "count": 1}).strategy == "contiguous"

    @pytest.mark.parametrize(
        "payload, field",
        [
            ([1, 3], "shard"),
            ({"count": 3}, "shard.index"),
            ({"index": 0}, "shard.count"),
            ({"index": 3, "count": 3}, "shard.index"),
            ({"index": True, "count": 3}, "shard.index"),
            ({"index": 0, "count": 3, "strategy": "zigzag"}, "shard.strategy"),
            ({"index": 0, "count": 3, "extra": 1}, "shard.extra"),
        ],
    )
    def test_invalid(self, payload, field):
        with pytest.raises(WireFormatError) as info:
            decode_shard_spec(payload)
        assert info.value.field == field


class TestShardJobs:
    def test_sharded_jobs_have_distinct_ids_and_run_subplans(self, tmp_path):
        plan = small_plan()
        manager = JobManager(store=tmp_path / "store")
        manager.start()
        try:
            jobs = []
            for spec in shard_specs(2, "strided"):
                job, coalesced = manager.submit(plan, shard=spec)
                assert not coalesced
                jobs.append(job)
            assert jobs[0].job_id != jobs[1].job_id
            assert jobs[0].total == len(ShardSpec(0, 2, "strided").plan_indices(len(plan)))
            # The same shard POSTed again coalesces while active or reruns.
            again, coalesced = manager.submit(plan, shard=ShardSpec(0, 2, "strided"))
            assert again.job_id == jobs[0].job_id
            assert manager.wait_idle(timeout=60)
        finally:
            manager.stop(timeout=10)
        for job in jobs:
            view = manager.job_view(job.job_id)
            assert view["state"] == "completed"
            assert view["shard"]["count"] == 2
            assert len(view["results"]) == view["total"]
        # Together the two shard jobs covered the plan: a resumed run on the
        # same store answers everything without evaluating.
        store = ResultStore(tmp_path / "store")
        assert run_output(store, plan) == baseline_output(plan)

    def test_empty_shard_rejected(self, tmp_path):
        plan = small_plan(capacities=(2,))  # 2 requests
        manager = JobManager(store=tmp_path / "store")
        # contiguous 0/3 of a 2-entry plan owns no positions.
        assert ShardSpec(0, 3, "contiguous").plan_indices(2) == ()
        with pytest.raises(ValueError, match="empty"):
            manager.submit(plan, shard=ShardSpec(0, 3, "contiguous"))

    def test_shard_job_record_recovers(self, tmp_path):
        plan = small_plan()
        manager = JobManager(store=tmp_path / "store")
        manager.start()
        try:
            job, _ = manager.submit(plan, shard=ShardSpec(1, 2, "strided"))
            assert manager.wait_idle(timeout=60)
        finally:
            manager.stop(timeout=10)
        fresh = JobManager(store=tmp_path / "store")
        assert fresh.recover() == []  # completed: visible, not re-enqueued
        view = fresh.job_view(job.job_id)
        assert view["state"] == "completed"
        assert view["shard"] == {"index": 1, "count": 2, "strategy": "strided"}


# ----------------------------------------------------------------------
# CLI verbs
# ----------------------------------------------------------------------
class TestShardCli:
    GRID = ["--methods", "linear,random", "--capacities", "2,3,4"]

    def test_full_cli_cycle_is_byte_identical(self, tmp_path, capsys):
        shards_dir = tmp_path / "shards"
        assert (
            main(
                ["sweep", "plan-split", *self.GRID, "--shards", "3",
                 "--strategy", "strided", "--out-dir", str(shards_dir), "--json"]
            )
            == 0
        )
        split = json.loads(capsys.readouterr().out)
        assert split["shards"] == 3 and len(split["files"]) == 3

        for index, spec_file in enumerate(split["files"]):
            code = main(
                ["sweep", "shard", "--spec", spec_file,
                 "--store", str(tmp_path / f"store-{index}"),
                 "--claim-dir", str(tmp_path / "claims"), "--json"]
            )
            assert code == 0
            report = json.loads(capsys.readouterr().out)
            assert report["schema"] == "repro-msfu-shard-run/v1"
            assert report["plan_fingerprint"] == split["plan_fingerprint"]

        assert (
            main(
                ["sweep", "merge",
                 *(str(tmp_path / f"store-{i}") for i in range(3)),
                 "--into", str(tmp_path / "merged"), "--json"]
            )
            == 0
        )
        merge = json.loads(capsys.readouterr().out)
        assert merge["merged"] == 6 and merge["conflicts"] == 0

        # The merged store reproduces the unsharded run byte for byte.
        assert main(
            ["sweep", "run", *self.GRID, "--store", str(tmp_path / "merged"),
             "--resume", "--json"]
        ) == 0
        merged_run = json.loads(capsys.readouterr().out)
        assert merged_run["stats"]["evaluations"] == 0
        assert main(
            ["sweep", "run", *self.GRID, "--store", str(tmp_path / "single"),
             "--json"]
        ) == 0
        single_run = json.loads(capsys.readouterr().out)
        assert merged_run["evaluations"] == single_run["evaluations"]

    def test_shard_by_index_flags_and_stream_output(self, tmp_path, capsys):
        stream = tmp_path / "events.jsonl"
        code = main(
            ["sweep", "shard", *self.GRID, "--shard-index", "0",
             "--shard-count", "2", "--store", str(tmp_path / "store"),
             "--stream-output", str(stream), "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        lines = [json.loads(line) for line in stream.read_text().splitlines()]
        assert len(lines) == len(report["own"])
        assert all(line["kind"] == "shard" for line in lines)
        assert sorted(line["plan_index"] for line in lines) == report["own"]

    def test_run_stream_output_sink(self, tmp_path, capsys):
        stream = tmp_path / "run.jsonl"
        code = main(
            ["sweep", "run", *self.GRID, "--store", str(tmp_path / "store"),
             "--stream-output", str(stream), "--json"]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        lines = [json.loads(line) for line in stream.read_text().splitlines()]
        assert len(lines) == 6
        assert lines[-1]["done"] == lines[-1]["total"] == 6
        streamed = {}
        for line in lines:
            for index in line["plan_indices"]:
                streamed[index] = line["evaluation"]
        assert [streamed[i] for i in range(6)] == result["evaluations"]

    def test_merge_conflict_exits_one(self, tmp_path, capsys):
        assert main(
            ["sweep", "run", *self.GRID, "--store", str(tmp_path / "src")]
        ) == 0
        assert main(
            ["sweep", "merge", str(tmp_path / "src"),
             "--into", str(tmp_path / "dst")]
        ) == 0
        capsys.readouterr()
        path = next(iter(sorted((tmp_path / "dst").glob("*/*.json"))))
        payload = json.loads(path.read_text())
        payload["result"]["latency"] = 10**9
        path.write_text(json.dumps(payload))
        assert main(
            ["sweep", "merge", str(tmp_path / "src"),
             "--into", str(tmp_path / "dst")]
        ) == 1
        err = capsys.readouterr().err
        assert "conflict" in err and "--prefer-newest" in err
        assert main(
            ["sweep", "merge", str(tmp_path / "src"),
             "--into", str(tmp_path / "dst"), "--prefer-newest"]
        ) == 0

    def test_shard_rejects_bad_invocations(self, tmp_path, capsys):
        # No spec and no shard indices.
        assert main(
            ["sweep", "shard", *self.GRID, "--store", str(tmp_path / "s")]
        ) == 2
        # Spec combined with explicit indices.
        shards_dir = tmp_path / "shards"
        assert main(
            ["sweep", "plan-split", *self.GRID, "--shards", "2",
             "--out-dir", str(shards_dir)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["sweep", "shard", "--spec", str(shards_dir / "shard-00-of-2.json"),
             "--shard-index", "0", "--shard-count", "2",
             "--store", str(tmp_path / "s")]
        ) == 2
        # Empty shard (more shards than unique positions for this index).
        assert main(
            ["sweep", "shard", "--methods", "linear", "--capacities", "2",
             "--shard-index", "1", "--shard-count", "3",
             "--store", str(tmp_path / "s")]
        ) == 2
        # Over-split plan.
        assert main(
            ["sweep", "plan-split", "--methods", "linear", "--capacities", "2",
             "--shards", "4", "--out-dir", str(shards_dir)]
        ) == 2

    def test_status_json_uses_to_dict_fields(self, tmp_path, capsys):
        assert main(
            ["sweep", "run", *self.GRID, "--store", str(tmp_path / "store")]
        ) == 0
        capsys.readouterr()
        assert main(
            ["sweep", "status", "--store", str(tmp_path / "store"), "--json"]
        ) == 0
        from repro.api import StoreStatus

        status = StoreStatus.from_dict(json.loads(capsys.readouterr().out))
        assert status.entries == 6
        assert status.corrupt == 0 and status.stale_schema == 0
