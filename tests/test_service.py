"""Tests for the sweep service (:mod:`repro.service`).

The acceptance contracts under test:

* **in-flight coalescing** — concurrent identical ``/v1/evaluate`` requests
  perform exactly one evaluation (singleflight by request fingerprint), and
  two concurrent identical sweep POSTs land on one job;
* **ETag revalidation** — the fingerprint is the ETag; ``If-None-Match``
  with a matching fingerprint is answered ``304`` with *zero* store reads;
* **crash resume** — a server killed mid-job and restarted on the same
  store finishes the job re-executing only the missing points, with
  results byte-identical to an uninterrupted run.

HTTP-level tests run a real :class:`ThreadingHTTPServer` on an ephemeral
port and speak ``urllib``; service-core tests drive :class:`SweepService`
directly (it is deliberately HTTP-free).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection

import pytest

from repro.api import (
    EvaluationRequest,
    FunctionMapper,
    Pipeline,
    ResultStore,
    SweepExecutor,
    SweepPlan,
    get_mapper,
    register_mapper,
    unregister_mapper,
)
from repro.service import (
    SERVICE_VERSION,
    JobManager,
    JobState,
    SweepService,
    WireFormatError,
    create_server,
    plan_fingerprint,
)
from repro.routing import SimulatorConfig
from repro.service.jobs import JOB_RECORD_SCHEMA, JOBS_DIRNAME

METHODS = ("linear", "graph_partition")
CAPACITIES = (2, 3)
SLOW_MAPPER = "slow_linear"
SLOW_SECONDS = 0.25


def a_request(**overrides) -> EvaluationRequest:
    payload = dict(method="linear", capacity=2)
    payload.update(overrides)
    return EvaluationRequest(**payload)


def small_plan() -> SweepPlan:
    return SweepPlan.from_grid(methods=METHODS, capacities=CAPACITIES)


@pytest.fixture
def slow_mapper():
    """A registered mapper that sleeps, widening every race window."""

    def slow_place(factory, *, seed=0, context=None):
        time.sleep(SLOW_SECONDS)
        return get_mapper("linear").place(factory, seed=seed, context=context)

    register_mapper(FunctionMapper(SLOW_MAPPER, slow_place), overwrite=True)
    try:
        yield SLOW_MAPPER
    finally:
        unregister_mapper(SLOW_MAPPER)


@pytest.fixture
def service(tmp_path):
    svc = SweepService(store=tmp_path / "store")
    svc.start()
    try:
        yield svc
    finally:
        svc.close()


@pytest.fixture
def base_url(service):
    """The service behind a live HTTP server on an ephemeral port."""
    server = create_server(service)
    # A 0.05 s poll interval: shutdown() waits up to one interval to return.
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield f"http://{server.server_address[0]}:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def http(method, url, payload=None, headers=None):
    """One HTTP exchange -> (status, headers, decoded JSON body or None)."""
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(
        url, data=data, headers=dict(headers or {}), method=method
    )
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            body = response.read()
            return (
                response.status,
                dict(response.headers),
                json.loads(body) if body else None,
            )
    except urllib.error.HTTPError as error:
        body = error.read()
        return error.code, dict(error.headers), json.loads(body) if body else None


def wait_for_job(base, job_id, timeout=90.0):
    """Poll ``GET /v1/jobs/<id>`` until the job leaves the active states."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, _, view = http("GET", f"{base}/v1/jobs/{job_id}")
        assert status == 200
        if view["state"] not in ("queued", "running"):
            return view
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


# ----------------------------------------------------------------------
# Service core: evaluate, ETag, coalescing
# ----------------------------------------------------------------------
class TestEvaluate:
    def test_cold_then_warm_sources(self, service):
        data = a_request().to_dict()
        cold = service.evaluate(data)
        assert cold.source == "evaluated"
        assert cold.payload["method"] == "linear"
        warm = service.evaluate(data)
        assert warm.source == "store"
        assert warm.payload == cold.payload
        assert warm.fingerprint == cold.fingerprint
        assert service.pipeline.stats.evaluations == 1

    def test_sim_config_without_durations_evaluates(self, service):
        # Asking for more route candidates alone once raised KeyError for
        # the first gate kind (an empty durations table) and answered 500.
        data = a_request().to_dict()
        data["sim_config"] = {"max_candidates": 3}
        outcome = service.evaluate(data)
        direct = Pipeline().evaluate(
            a_request(sim_config=SimulatorConfig(max_candidates=3))
        )
        assert outcome.payload == direct.to_dict()

    def test_etag_revalidation_reads_nothing(self, service):
        data = a_request().to_dict()
        cold = service.evaluate(data)
        before = service.store.counters()
        outcome = service.evaluate(data, if_none_match=cold.etag)
        assert outcome.not_modified
        assert outcome.payload is None
        assert outcome.fingerprint == cold.fingerprint
        # The 304 path touches neither the store nor the pipeline.
        assert service.store.counters() == before
        assert service.pipeline.stats.evaluations == 1
        assert service.counters.not_modified == 1

    def test_etag_header_forms(self, service):
        data = a_request().to_dict()
        fingerprint = service.evaluate(data).fingerprint
        for header in (
            f'"{fingerprint}"',
            fingerprint,
            f'W/"{fingerprint}"',
            f'"{"0" * 40}", "{fingerprint}"',
            "*",
        ):
            assert service.evaluate(data, if_none_match=header).not_modified
        assert not service.evaluate(data, if_none_match='"0" * 40').not_modified

    def test_stale_etag_is_answered_in_full(self, service):
        data = a_request().to_dict()
        service.evaluate(data)
        outcome = service.evaluate(data, if_none_match='"' + "0" * 40 + '"')
        assert not outcome.not_modified
        assert outcome.payload is not None

    def test_concurrent_identical_requests_coalesce(self, service, slow_mapper):
        data = a_request(method=slow_mapper).to_dict()
        herd = 4
        barrier = threading.Barrier(herd)

        def call():
            barrier.wait()
            return service.evaluate(data)

        with ThreadPoolExecutor(max_workers=herd) as pool:
            outcomes = list(pool.map(lambda _: call(), range(herd)))

        sources = [outcome.source for outcome in outcomes]
        # Exactly one evaluation happened; everyone else rode along
        # (coalesced into the flight, or — if they arrived a beat late —
        # answered from the store the leader just populated).
        assert service.pipeline.stats.evaluations == 1
        assert sources.count("evaluated") == 1
        assert all(source in ("evaluated", "coalesced", "store") for source in sources)
        assert sources.count("coalesced") == service.counters.coalesced_hits
        assert service.counters.coalesced_hits >= 1
        payloads = [json.dumps(o.payload, sort_keys=True) for o in outcomes]
        assert len(set(payloads)) == 1

    def test_stored_answer_does_not_wait_for_the_pipeline_lock(self, service):
        data = a_request().to_dict()
        service.evaluate(data)
        pool = ThreadPoolExecutor(max_workers=1)
        try:
            # Another request's evaluation holds the pipeline lock.
            with service._pipeline_lock:
                outcome = pool.submit(service.evaluate, data).result(timeout=10)
        finally:
            pool.shutdown(wait=True)
        assert outcome.source == "store"
        assert service.counters.store_hits == 1
        assert service.status()["evaluate"] == {"evaluations": 1, "store_hits": 1}

    def test_unknown_mapper_is_wire_error_listing_registered(self, service):
        with pytest.raises(WireFormatError) as excinfo:
            service.evaluate(a_request(method="nope").to_dict())
        message = str(excinfo.value)
        assert excinfo.value.field == "method"
        assert "'nope'" in message and "linear" in message

    def test_malformed_request_is_wire_error(self, service):
        with pytest.raises(WireFormatError) as excinfo:
            service.evaluate({"method": "linear"})
        assert excinfo.value.field == "capacity"


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------
class TestHttpEndpoints:
    def test_healthz(self, base_url):
        status, _, body = http("GET", f"{base_url}/healthz")
        assert status == 200
        assert body == {"ok": True, "service": SERVICE_VERSION}

    def test_kept_alive_connection_does_not_stall(self, base_url):
        # Headers and body go out in separate writes; with Nagle on, each
        # response waited ~40 ms for the client's delayed ACK (30 requests
        # took ~1.3 s).  With TCP_NODELAY they take milliseconds.
        host, port = base_url.rsplit("/", 1)[1].split(":")
        connection = HTTPConnection(host, int(port), timeout=30)
        try:
            started = time.perf_counter()
            for _ in range(30):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["ok"] is True
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        assert elapsed < 0.5, f"30 kept-alive requests took {elapsed:.2f}s"

    def test_unknown_endpoint_404_lists_routes(self, base_url):
        status, _, body = http("GET", f"{base_url}/v1/nope")
        assert status == 404
        assert "POST /v1/evaluate" in body["error"]["endpoints"]

    def test_unknown_job_404(self, base_url):
        status, _, body = http("GET", f"{base_url}/v1/jobs/{'0' * 40}")
        assert status == 404
        assert "unknown job" in body["error"]["message"]

    def test_evaluate_roundtrip_and_304(self, base_url, service):
        data = a_request().to_dict()
        status, headers, body = http("POST", f"{base_url}/v1/evaluate", data)
        assert status == 200
        assert body["source"] == "evaluated"
        assert body["result"]["method"] == "linear"
        etag = headers["ETag"]
        assert etag == f'"{body["fingerprint"]}"'

        before = service.store.counters()
        for _ in range(50):
            status, headers, body = http(
                "POST", f"{base_url}/v1/evaluate", data, {"If-None-Match": etag}
            )
            assert status == 304
            assert body is None
            assert headers["ETag"] == etag
        # Revalidation is HTTP overhead only: no store read, no evaluation.
        assert service.store.counters() == before
        assert service.pipeline.stats.evaluations == 1
        assert service.counters.not_modified == 50

        status, _, body = http("POST", f"{base_url}/v1/evaluate", data)
        assert status == 200
        assert body["source"] == "store"

    def test_concurrent_identical_evaluates_cost_one_evaluation(
        self, base_url, service
    ):
        data = a_request(capacity=6).to_dict()
        herd = 8
        barrier = threading.Barrier(herd)

        def call(_):
            barrier.wait()
            return http("POST", f"{base_url}/v1/evaluate", data)

        with ThreadPoolExecutor(max_workers=herd) as pool:
            responses = list(pool.map(call, range(herd)))

        assert [status for status, _, _ in responses] == [200] * herd
        results = {json.dumps(body["result"], sort_keys=True) for _, _, body in responses}
        assert len(results) == 1
        # One evaluation; everyone else coalesced into its flight or read
        # the store the leader had just populated.
        assert service.pipeline.stats.evaluations == 1
        sources = [body["source"] for _, _, body in responses]
        assert sources.count("evaluated") == 1
        assert sources.count("coalesced") == service.counters.coalesced_hits

    def test_malformed_body_is_400_naming_the_field(self, base_url):
        status, _, body = http(
            "POST", f"{base_url}/v1/evaluate", {"method": "linear"}
        )
        assert status == 400
        assert body["error"]["field"] == "capacity"
        assert "capacity" in body["error"]["message"]

    def test_unknown_mapper_is_400_listing_registered(self, base_url):
        status, _, body = http(
            "POST", f"{base_url}/v1/evaluate", a_request(method="typo").to_dict()
        )
        assert status == 400
        assert "'typo'" in body["error"]["message"]
        assert "linear" in body["error"]["message"]

    def test_empty_body_is_400(self, base_url):
        request = urllib.request.Request(
            f"{base_url}/v1/evaluate", data=b"", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_invalid_json_body_is_400(self, base_url):
        request = urllib.request.Request(
            f"{base_url}/v1/evaluate", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_status_shape(self, base_url):
        http("GET", f"{base_url}/healthz")
        status, _, body = http("GET", f"{base_url}/v1/status")
        assert status == 200
        assert body["service"] == SERVICE_VERSION
        assert body["workers"] == 1
        assert set(body["store_counters"]) == {
            "hits",
            "misses",
            "puts",
            "corrupt_skipped",
        }
        assert body["server"]["requests"] >= 1
        endpoint = body["server"]["endpoints"]["GET /healthz"]
        assert endpoint["requests"] == 1
        assert endpoint["errors"] == 0
        assert endpoint["mean_latency_ms"] >= 0
        assert body["jobs"] == {
            "queued": 0,
            "running": 0,
            "completed": 0,
            "failed": 0,
        }
        assert body["in_flight"] == 0

    def test_status_counts_every_answered_request(self, base_url):
        # Each request is counted before its response goes out, so a
        # client holding its /healthz reply always finds it in /v1/status.
        # Two kept-alive connections are served by two handler threads,
        # which is where counting after the write raced the next request.
        host, port = base_url.rsplit("/", 1)[1].split(":")
        health = HTTPConnection(host, int(port), timeout=30)
        status_conn = HTTPConnection(host, int(port), timeout=30)
        try:
            for answered in range(1, 401):
                health.request("GET", "/healthz")
                response = health.getresponse()
                response.read()
                assert response.status == 200
                status_conn.request("GET", "/v1/status")
                body = json.loads(status_conn.getresponse().read())
                endpoints = body["server"]["endpoints"]
                assert endpoints["GET /healthz"]["requests"] == answered
        finally:
            health.close()
            status_conn.close()

    def test_invalid_fd_config_is_400_naming_fd_config(self, base_url):
        data = a_request(method="force_directed").to_dict()
        data["fd_config"] = {"max_step": -1}
        status, _, body = http("POST", f"{base_url}/v1/evaluate", data)
        assert status == 400
        assert body["error"]["field"] == "fd_config"
        assert "max_step" in body["error"]["message"]

    def test_invalid_stitch_config_is_400_naming_stitch_config(self, base_url):
        # An unknown hop mode once ran midpoint annealing and was stored
        # under its own fingerprint.
        data = a_request(method="hierarchical_stitching").to_dict()
        data["stitch_config"] = {"hop_mode": "bogus"}
        status, _, body = http("POST", f"{base_url}/v1/evaluate", data)
        assert status == 400
        assert body["error"]["field"] == "stitch_config"
        assert "hop_mode" in body["error"]["message"]

    def test_invalid_sim_config_is_400_naming_sim_config(self, base_url):
        # A string candidate budget once raised TypeError in the router.
        data = a_request().to_dict()
        data["sim_config"] = {"max_candidates": "x"}
        status, _, body = http("POST", f"{base_url}/v1/evaluate", data)
        assert status == 400
        assert body["error"]["field"] == "sim_config"
        assert "max_candidates" in body["error"]["message"]

    def test_hop_outside_the_grid_is_400_naming_sim_config_hops(self, base_url):
        request = a_request(sim_config=SimulatorConfig(hops={3: (10_000, 10_000)}))
        status, _, body = http("POST", f"{base_url}/v1/evaluate", request.to_dict())
        assert status == 400
        assert body["error"]["field"] == "sim_config.hops"
        assert "gate 3 " in body["error"]["message"]

    def test_overflowing_fd_weight_is_400_not_500(self, base_url):
        # A finite weight this large once passed validation, overflowed
        # the first sweep's repulsion sums to NaN and answered 500.
        data = a_request(method="force_directed").to_dict()
        data["fd_config"] = {"repulsion_weight": 1e308}
        status, _, body = http("POST", f"{base_url}/v1/evaluate", data)
        assert status == 400
        assert body["error"]["field"] == "fd_config"
        assert "repulsion_weight" in body["error"]["message"]


class TestHttpSweeps:
    def test_sweep_job_lifecycle(self, base_url, service):
        plan = small_plan()
        status, headers, accepted = http(
            "POST", f"{base_url}/v1/sweeps", plan.to_dict()
        )
        assert status == 202
        assert accepted["total"] == len(plan)
        assert not accepted["coalesced"]
        assert headers["Location"] == f"/v1/jobs/{accepted['job_id']}"

        view = wait_for_job(base_url, accepted["job_id"])
        assert view["state"] == "completed"
        assert view["completed"] == view["total"] == len(plan)
        assert view["error"] is None
        stats = view["stats"]
        assert stats["requests"] == len(plan)
        assert stats["requests"] == (
            stats["duplicate_hits"] + stats["store_hits"] + stats["evaluations"]
        )
        assert [entry["index"] for entry in view["results"]] == list(
            range(len(plan))
        )
        methods = {entry["result"]["method"] for entry in view["results"]}
        assert methods == set(METHODS)
        # Every point landed in the shared store as it completed.
        assert len(service.store) == len(plan)

    def test_repeat_post_after_completion_is_all_store_hits(self, base_url):
        plan = small_plan()
        _, _, first = http("POST", f"{base_url}/v1/sweeps", plan.to_dict())
        first_view = wait_for_job(base_url, first["job_id"])

        _, _, again = http("POST", f"{base_url}/v1/sweeps", plan.to_dict())
        assert again["job_id"] == first["job_id"]  # same plan, same identity
        assert not again["coalesced"]  # a fresh run, not a join
        second_view = wait_for_job(base_url, again["job_id"])
        assert second_view["stats"]["evaluations"] == 0
        assert second_view["stats"]["store_hits"] == len(plan)
        assert json.dumps(
            [e["result"] for e in second_view["results"]], sort_keys=True
        ) == json.dumps([e["result"] for e in first_view["results"]], sort_keys=True)

    def test_concurrent_identical_sweep_posts_coalesce(
        self, base_url, service, slow_mapper
    ):
        plan = SweepPlan.from_grid(methods=(slow_mapper,), capacities=(2, 3))
        barrier = threading.Barrier(2)

        def post(_):
            barrier.wait()
            return http("POST", f"{base_url}/v1/sweeps", plan.to_dict())

        with ThreadPoolExecutor(max_workers=2) as pool:
            responses = list(pool.map(post, range(2)))

        assert [status for status, _, _ in responses] == [202, 202]
        bodies = [body for _, _, body in responses]
        assert bodies[0]["job_id"] == bodies[1]["job_id"]
        assert sorted(body["coalesced"] for body in bodies) == [False, True]
        assert service.counters.coalesced_hits == 1

        view = wait_for_job(base_url, bodies[0]["job_id"])
        assert view["state"] == "completed"
        assert view["submissions"] == 2
        # One job ran; the plan's evaluations happened exactly once.
        assert view["stats"]["evaluations"] == len(plan)
        assert service.pipeline.stats.evaluations == 0  # jobs bypass it
        assert len(service.store) == len(plan)

    def test_sharded_posts_cover_the_plan_under_distinct_job_ids(
        self, base_url, service
    ):
        plan = small_plan()
        bodies = []
        for index in range(2):
            payload = dict(plan.to_dict())
            payload["shard"] = {"index": index, "count": 2, "strategy": "strided"}
            status, _, body = http("POST", f"{base_url}/v1/sweeps", payload)
            assert status == 202
            assert body["shard"]["index"] == index
            bodies.append(body)
        assert bodies[0]["job_id"] != bodies[1]["job_id"]
        assert sum(body["total"] for body in bodies) == len(plan)
        for body in bodies:
            view = wait_for_job(base_url, body["job_id"])
            assert view["state"] == "completed"
            assert view["shard"]["count"] == 2
        # The two shard jobs together covered every plan point.
        assert len(service.store) == len(plan)

    def test_malformed_shard_is_400_naming_the_field(self, base_url, service):
        payload = dict(small_plan().to_dict())
        payload["shard"] = {"index": 5, "count": 2}
        status, _, body = http("POST", f"{base_url}/v1/sweeps", payload)
        assert status == 400
        assert body["error"]["field"] == "shard.index"
        assert service.jobs.jobs_in_flight() == 0

    def test_sweep_with_unknown_mapper_is_400_before_queueing(
        self, base_url, service
    ):
        plan = SweepPlan.from_grid(methods=("typo",), capacities=(2,))
        status, _, body = http("POST", f"{base_url}/v1/sweeps", plan.to_dict())
        assert status == 400
        assert "'typo'" in body["error"]["message"]
        assert service.jobs.jobs_in_flight() == 0

    def test_malformed_plan_is_400_naming_the_request(self, base_url):
        payload = {"requests": [a_request().to_dict(), {"method": "linear"}]}
        status, _, body = http("POST", f"{base_url}/v1/sweeps", payload)
        assert status == 400
        assert body["error"]["field"] == "requests[1].capacity"


# ----------------------------------------------------------------------
# Crash resume: the acceptance criterion, end to end
# ----------------------------------------------------------------------
class TestCrashResume:
    def test_restarted_service_finishes_job_reexecuting_only_missing_points(
        self, tmp_path
    ):
        plan = small_plan()

        # The reference: an uninterrupted run on its own store.
        reference = SweepExecutor(store=tmp_path / "reference").run(plan)
        reference_payloads = [e.to_dict() for e in reference.evaluations]

        # The crash site: a store holding only part of the plan's points,
        # plus the job record a dying server left behind in state=running.
        crashed = ResultStore(tmp_path / "crashed")
        partial = SweepPlan.from_requests(list(plan)[:2])
        SweepExecutor(store=crashed).run(partial)
        assert len(crashed) == 2

        manager = JobManager(crashed)  # records the job; never started
        job, coalesced = manager.submit(plan)
        assert not coalesced
        record_path = crashed.root / JOBS_DIRNAME / f"{job.job_id}.json"
        record = json.loads(record_path.read_text())
        assert record["schema"] == JOB_RECORD_SCHEMA
        record["state"] = JobState.RUNNING.value
        record["completed"] = 1
        record_path.write_text(json.dumps(record))

        # Restart: recovery re-enqueues the unfinished job.
        service = SweepService(store=crashed)
        assert service.start() == 1
        try:
            assert service.jobs.wait_idle(timeout=90)
            view = service.job_status(job.job_id)
        finally:
            service.close()

        assert view["state"] == "completed"
        assert view["completed"] == view["total"] == len(plan)
        # Only the two missing points re-executed; the rest came from disk.
        assert view["stats"]["store_hits"] == 2
        assert view["stats"]["evaluations"] == 2
        # Byte-identical to the uninterrupted run.
        assert json.dumps(
            [entry["result"] for entry in view["results"]], sort_keys=True
        ) == json.dumps(reference_payloads, sort_keys=True)

    def test_completed_jobs_recover_for_inspection_without_requeueing(
        self, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        plan = SweepPlan.from_grid(methods=("linear",), capacities=(2,))

        first = SweepService(store=store)
        assert first.start() == 0
        job, _ = first.jobs.submit(plan)
        assert first.jobs.wait_idle(timeout=90)
        first.close()

        second = SweepService(store=store)
        assert second.start() == 0  # nothing unfinished to requeue
        try:
            view = second.job_status(job.job_id)
            assert view is not None
            assert view["state"] == "completed"
            # Results backfill from the store for the recovered record.
            assert [e["index"] for e in view["results"]] == [0]
            assert view["results"][0]["result"]["method"] == "linear"
        finally:
            second.close()

    def test_corrupt_job_record_is_warned_and_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        jobs_dir = store.root / JOBS_DIRNAME
        jobs_dir.mkdir(parents=True)
        (jobs_dir / "deadbeef.json").write_text("{not json")
        service = SweepService(store=store)
        with pytest.warns(Warning, match="unreadable job record"):
            assert service.start() == 0
        service.close()

    def test_job_records_are_invisible_to_store_maintenance(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        service = SweepService(store=store)
        service.start()
        try:
            plan = SweepPlan.from_grid(methods=("linear",), capacities=(2,))
            service.jobs.submit(plan)
            assert service.jobs.wait_idle(timeout=90)
        finally:
            service.close()
        # The jobs/ directory must not read as store entries.
        assert len(store) == 1
        status = store.status()
        assert status["entries"] == 1
        report = store.gc(keep_days=0, dry_run=True)
        assert report.kept + len(report.removed) == 1


# ----------------------------------------------------------------------
# Job identity
# ----------------------------------------------------------------------
class TestPlanFingerprint:
    def test_identical_plans_identical_ids(self):
        assert plan_fingerprint(small_plan()) == plan_fingerprint(small_plan())

    def test_order_and_content_change_the_id(self):
        plan = small_plan()
        reordered = SweepPlan.from_requests(list(plan)[::-1])
        shorter = SweepPlan.from_requests(list(plan)[:-1])
        assert plan_fingerprint(plan) != plan_fingerprint(reordered)
        assert plan_fingerprint(plan) != plan_fingerprint(shorter)

    def test_plan_identity_is_the_effective_sim_config(self, tmp_path):
        """The implicit and explicit default are one plan and one job; two
        different explicit configs are two of each."""
        implicit = SweepPlan.from_requests([a_request()])
        explicit = SweepPlan.from_requests([a_request(sim_config=SimulatorConfig())])
        other = SweepPlan.from_requests(
            [a_request(sim_config=SimulatorConfig(max_candidates=3))]
        )
        assert plan_fingerprint(implicit) == plan_fingerprint(explicit)
        assert plan_fingerprint(other) != plan_fingerprint(implicit)
        with pytest.raises(TypeError):
            plan_fingerprint(implicit, SimulatorConfig(max_candidates=3))

        manager = JobManager(tmp_path / "store")  # records jobs; never started
        job, coalesced = manager.submit(implicit)
        assert not coalesced
        joined, coalesced = manager.submit(explicit)
        assert coalesced
        assert joined.job_id == job.job_id
        separate, coalesced = manager.submit(other)
        assert not coalesced
        assert separate.job_id != job.job_id

    def test_mixed_default_forms_are_one_evaluation_in_a_job(self, service):
        plan = SweepPlan.from_requests(
            [
                EvaluationRequest("linear", 4),
                EvaluationRequest("linear", 4, sim_config=SimulatorConfig()),
            ]
        )
        accepted = service.submit_sweep(plan.to_dict())
        assert service.jobs.wait_idle(timeout=90)
        view = service.job_status(accepted["job_id"])
        assert view["state"] == "completed"
        assert view["stats"]["evaluations"] == 1
        assert view["stats"]["duplicate_hits"] == 1
        assert view["results"][0]["result"] == view["results"][1]["result"]
        assert len(service.store) == 1
