"""The sweep service: a stdlib-only HTTP front end over the evaluation API.

``repro-msfu serve`` turns the library every client used to re-import into
one long-running shared endpoint, so the content-addressed
:class:`~repro.api.store.ResultStore` amortizes simulation cost across
*every* client instead of per process.  Three layers of duplicate-work
elimination stack up, keyed identically (the request fingerprint):

1. **store hits** — a request evaluated by anyone, ever, on this store is
   answered from disk (``store_hits``);
2. **in-flight coalescing** — concurrent requests with the same fingerprint
   join the one evaluation already running (singleflight;
   ``coalesced_hits``), so a thundering herd costs one simulation;
3. **ETag revalidation** — the fingerprint *is* the ETag.  A warm client
   re-POSTs with ``If-None-Match: "<fingerprint>"`` and is answered
   ``304 Not Modified`` with no store read at all: evaluation is
   deterministic in the request, so a fingerprint match proves the
   client's cached body is current.

Endpoints (all JSON)::

    POST /v1/evaluate   one EvaluationRequest -> result (synchronous)
    POST /v1/sweeps     one SweepPlan -> {job_id}, queued (202)
    GET  /v1/jobs/<id>  progress: completed/total, stats, partial results
    GET  /v1/status     store status+counters, server counters, job counts
    GET  /healthz       liveness probe

A malformed payload, or a request the pipeline rejects as given (a
:class:`~repro.api.pipeline.RequestError`, such as a hop outside the mapped
grid), is answered 400 naming the offending field; any other failure 500.

Built on :class:`http.server.ThreadingHTTPServer` — no new runtime
dependencies — with one thread per connection; CPU-bound evaluation is
serialized through a pipeline lock (the GIL would anyway), while store
reads run outside it, so a stored answer never queues behind a fresh
evaluation.  Sweep jobs run on the :class:`~repro.service.jobs.JobManager`
worker and fan out across processes via ``--workers``.
"""

from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..api.pipeline import Pipeline, RequestError
from ..api.store import DEFAULT_STORE_ROOT, ResultStore, as_result_store
from .jobs import JobManager
from .wire import (
    WireFormatError,
    decode_evaluation_request,
    decode_shard_spec,
    decode_sweep_plan,
    validate_mapper_name,
    validate_plan_mappers,
)

#: Service version reported in /v1/status and the Server header.
SERVICE_VERSION = "repro-msfu-service/1"

_JOB_PATH = re.compile(r"^/v1/jobs/([0-9a-f]{8,128})$")


class ServiceCounters:
    """Thread-safe request/latency/coalescing accounting for ``/v1/status``.

    ``store_hits`` counts ``/v1/evaluate`` requests answered from the
    result store (reported as ``evaluate.store_hits``, beside the
    pipeline's ``evaluations``).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.coalesced_hits = 0
        self.not_modified = 0
        self.store_hits = 0
        self._endpoints: Dict[str, Dict[str, float]] = {}

    def observe(self, endpoint: str, seconds: float, status: int) -> None:
        with self._lock:
            self.requests += 1
            entry = self._endpoints.setdefault(
                endpoint, {"requests": 0, "errors": 0, "seconds_total": 0.0}
            )
            entry["requests"] += 1
            entry["seconds_total"] += seconds
            if status >= 400:
                entry["errors"] += 1

    def coalesced(self) -> None:
        with self._lock:
            self.coalesced_hits += 1

    def etag_hit(self) -> None:
        with self._lock:
            self.not_modified += 1

    def store_hit(self) -> None:
        with self._lock:
            self.store_hits += 1

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            endpoints = {}
            for name, entry in sorted(self._endpoints.items()):
                count = int(entry["requests"])
                endpoints[name] = {
                    "requests": count,
                    "errors": int(entry["errors"]),
                    "mean_latency_ms": round(
                        1000.0 * entry["seconds_total"] / count, 3
                    )
                    if count
                    else 0.0,
                }
            return {
                "requests": self.requests,
                "coalesced_hits": self.coalesced_hits,
                "not_modified": self.not_modified,
                "endpoints": endpoints,
            }


class _Flight:
    """One in-flight evaluation other threads can wait on (singleflight)."""

    __slots__ = ("done", "payload", "source", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.payload: Optional[Dict[str, Any]] = None
        self.source: Optional[str] = None
        self.error: Optional[BaseException] = None


@dataclass
class EvaluateOutcome:
    """What ``SweepService.evaluate`` hands the HTTP layer."""

    fingerprint: str
    not_modified: bool = False
    payload: Optional[Dict[str, Any]] = None
    source: str = "evaluated"  # "evaluated" | "store" | "coalesced"

    @property
    def etag(self) -> str:
        return f'"{self.fingerprint}"'


def _etag_matches(header: Optional[str], fingerprint: str) -> bool:
    """RFC-ish ``If-None-Match`` check against the strong fingerprint ETag."""
    if not header:
        return False
    for candidate in header.split(","):
        candidate = candidate.strip()
        if candidate == "*":
            return True
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate.strip('"') == fingerprint:
            return True
    return False


class SweepService:
    """The service core: store, pipeline, job queue, coalescing, counters.

    Pure domain logic — no HTTP types — so tests can drive it directly and
    the handler stays a thin (de)serialization shell.
    """

    def __init__(
        self,
        store: Union[ResultStore, str, Path] = DEFAULT_STORE_ROOT,
        workers: int = 1,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        resolved = as_result_store(store)
        assert resolved is not None
        self.store = resolved
        self.workers = workers
        self.pipeline = Pipeline()
        self.jobs = JobManager(self.store, workers=workers)
        self.counters = ServiceCounters()
        self.started_unix = time.time()
        # The pipeline mutates shared caches/stats; one evaluation at a time.
        # Store reads and writes need no such lock (see evaluate).
        self._pipeline_lock = threading.Lock()
        self._flight_lock = threading.Lock()
        self._inflight: Dict[str, _Flight] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> int:
        """Recover persisted unfinished jobs and start the worker thread.

        Returns how many jobs were re-enqueued (the crash-resume count).
        """
        requeued = len(self.jobs.recover())
        self.jobs.start()
        return requeued

    def close(self, timeout: Optional[float] = 5.0) -> None:
        self.jobs.stop(timeout)

    # ------------------------------------------------------------------
    # POST /v1/evaluate
    # ------------------------------------------------------------------
    def evaluate(
        self, data: Any, if_none_match: Optional[str] = None
    ) -> EvaluateOutcome:
        """Validate, revalidate (ETag), coalesce, and evaluate one request.

        The flight leader reads the store before it takes the pipeline lock
        and evaluates under the lock only on a miss, so a stored answer
        never waits for another request's evaluation.  It persists a fresh
        result before it releases the flight: a request arriving after the
        followers were answered finds the entry in the store.
        """
        request = decode_evaluation_request(data)
        validate_mapper_name(request.method)
        # Resolve the default config once: the ETag, the store read and
        # the store write each fingerprint the request.
        request = request.with_effective_sim_config()
        fingerprint = self.store.fingerprint(request)

        # ETag fast path: a fingerprint match proves the client's cached
        # body is the answer — no store read, no lock, nothing.
        if _etag_matches(if_none_match, fingerprint):
            self.counters.etag_hit()
            return EvaluateOutcome(fingerprint=fingerprint, not_modified=True)

        with self._flight_lock:
            flight = self._inflight.get(fingerprint)
            leader = flight is None
            if leader:
                flight = _Flight()
                self._inflight[fingerprint] = flight
        assert flight is not None

        if not leader:
            # Singleflight: join the evaluation already in progress.
            self.counters.coalesced()
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            return EvaluateOutcome(
                fingerprint=fingerprint,
                payload=flight.payload,
                source="coalesced",
            )

        try:
            evaluation = self.store.get(request)
            if evaluation is not None:
                self.counters.store_hit()
                flight.source = "store"
            else:
                with self._pipeline_lock:
                    started = time.perf_counter()
                    evaluation = self.pipeline.evaluate(request)
                    wall_seconds = time.perf_counter() - started
                self.store.try_put(request, evaluation, wall_seconds=wall_seconds)
                flight.source = "evaluated"
            flight.payload = evaluation.to_dict()
        except BaseException as error:
            flight.error = error
            raise
        finally:
            with self._flight_lock:
                self._inflight.pop(fingerprint, None)
            flight.done.set()
        return EvaluateOutcome(
            fingerprint=fingerprint,
            payload=flight.payload,
            source=flight.source or "evaluated",
        )

    # ------------------------------------------------------------------
    # POST /v1/sweeps and GET /v1/jobs/<id>
    # ------------------------------------------------------------------
    def submit_sweep(self, data: Any) -> Dict[str, Any]:
        plan = decode_sweep_plan(data)
        validate_plan_mappers(plan)
        # An optional "shard" object makes this submission one piece of the
        # plan (distinct job id per shard) — the fleet face of the
        # distributed sweep layer; stores are joined later by `sweep merge`.
        shard = None
        if isinstance(data, Mapping) and data.get("shard") is not None:
            shard = decode_shard_spec(data["shard"])
            if not shard.plan_indices(len(plan)):
                raise WireFormatError(
                    f"shard {shard.index}/{shard.count} of this "
                    f"{len(plan)}-request plan is empty",
                    "shard.index",
                )
        job, coalesced = self.jobs.submit(plan, shard=shard)
        if coalesced:
            self.counters.coalesced()
        return {
            "job_id": job.job_id,
            "state": job.state.value,
            "shard": None if job.shard is None else job.shard.to_dict(),
            "total": job.total,
            "coalesced": coalesced,
            "location": f"/v1/jobs/{job.job_id}",
        }

    def job_status(self, job_id: str) -> Optional[Dict[str, Any]]:
        return self.jobs.job_view(job_id)

    # ------------------------------------------------------------------
    # GET /v1/status
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        payload = {
            "service": SERVICE_VERSION,
            "uptime_seconds": round(time.time() - self.started_unix, 3),
            "workers": self.workers,
            "store": self.store.status(),
            "store_counters": self.store.counters(),
            "evaluate": {
                "evaluations": self.pipeline.stats.evaluations,
                "store_hits": self.counters.store_hits,
            },
            "server": self.counters.to_dict(),
        }
        payload.update(self.jobs.summary())
        return payload


# ----------------------------------------------------------------------
# The HTTP shell
# ----------------------------------------------------------------------
def build_handler(service: SweepService, quiet: bool = True):
    """The request handler class bound to one :class:`SweepService`."""

    class Handler(BaseHTTPRequestHandler):
        server_version = SERVICE_VERSION
        protocol_version = "HTTP/1.1"
        # TCP_NODELAY: _send_json writes headers and body separately, and
        # with Nagle the body waits for the client's delayed ACK (~40 ms
        # per response on a kept-alive connection).
        disable_nagle_algorithm = True
        #: (endpoint, start time) of the request being dispatched, until
        #: its response status is recorded in the service counters.
        _pending_observation: Optional[Tuple[str, float]] = None

        # ---- plumbing ------------------------------------------------
        def log_message(self, format: str, *args: Any) -> None:
            if not quiet:  # pragma: no cover - interactive serve only
                BaseHTTPRequestHandler.log_message(self, format, *args)

        def _send_json(
            self,
            status: int,
            payload: Optional[Dict[str, Any]],
            headers: Optional[Dict[str, str]] = None,
        ) -> None:
            body = b""
            if payload is not None:
                body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
            # Count the request before any byte of the response leaves: a
            # client that has its reply must find it in /v1/status.
            self._observe(status)
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            if body:
                self.wfile.write(body)

        def _read_json_body(self) -> Any:
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b""
            if not raw:
                raise WireFormatError("request body is empty; expected JSON")
            try:
                return json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as error:
                raise WireFormatError(
                    f"request body is not valid JSON: {error}"
                ) from error

        def _observe(self, status: int) -> None:
            """Record the dispatched request once, with its final status."""
            pending = self._pending_observation
            if pending is not None:
                self._pending_observation = None
                endpoint, started = pending
                service.counters.observe(
                    endpoint, time.perf_counter() - started, status
                )

        def _dispatch(self, endpoint: str, handler) -> None:
            self._pending_observation = (endpoint, time.perf_counter())
            try:
                handler()
            except RequestError as error:  # a bad payload or an unmappable request
                self._send_json(400, error.to_dict())
            except Exception as error:  # never kill the connection thread
                self._send_json(
                    500,
                    {"error": {"message": f"{type(error).__name__}: {error}"}},
                )
            finally:
                # A handler that died before responding is still counted.
                self._observe(500)

        # ---- routes --------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 - http.server API
            if self.path == "/healthz":
                self._dispatch("GET /healthz", self._get_healthz)
            elif self.path == "/v1/status":
                self._dispatch("GET /v1/status", self._get_status)
            elif _JOB_PATH.match(self.path):
                self._dispatch("GET /v1/jobs", self._get_job)
            else:
                self._dispatch("GET <unknown>", self._not_found)

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            if self.path == "/v1/evaluate":
                self._dispatch("POST /v1/evaluate", self._post_evaluate)
            elif self.path == "/v1/sweeps":
                self._dispatch("POST /v1/sweeps", self._post_sweeps)
            else:
                self._dispatch("POST <unknown>", self._not_found)

        def _not_found(self) -> None:
            self._send_json(
                404,
                {
                    "error": {
                        "message": f"unknown endpoint {self.command} {self.path}",
                        "endpoints": [
                            "POST /v1/evaluate",
                            "POST /v1/sweeps",
                            "GET /v1/jobs/<id>",
                            "GET /v1/status",
                            "GET /healthz",
                        ],
                    }
                },
            )

        def _get_healthz(self) -> None:
            self._send_json(200, {"ok": True, "service": SERVICE_VERSION})

        def _get_status(self) -> None:
            self._send_json(200, service.status())

        def _get_job(self) -> None:
            match = _JOB_PATH.match(self.path)
            assert match is not None
            view = service.job_status(match.group(1))
            if view is None:
                self._send_json(
                    404,
                    {"error": {"message": f"unknown job {match.group(1)!r}"}},
                )
                return
            self._send_json(200, view)

        def _post_evaluate(self) -> None:
            data = self._read_json_body()
            outcome = service.evaluate(
                data, if_none_match=self.headers.get("If-None-Match")
            )
            if outcome.not_modified:
                self._send_json(304, None, headers={"ETag": outcome.etag})
                return
            self._send_json(
                200,
                {
                    "fingerprint": outcome.fingerprint,
                    "source": outcome.source,
                    "result": outcome.payload,
                },
                headers={"ETag": outcome.etag},
            )

        def _post_sweeps(self) -> None:
            data = self._read_json_body()
            accepted = service.submit_sweep(data)
            self._send_json(
                202, accepted, headers={"Location": accepted["location"]}
            )

    return Handler


def create_server(
    service: SweepService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> ThreadingHTTPServer:
    """A ready-to-run server (``port=0`` binds an ephemeral port for tests)."""
    server = ThreadingHTTPServer((host, port), build_handler(service, quiet=quiet))
    server.daemon_threads = True
    return server


def serve(
    store: Union[ResultStore, str, Path] = DEFAULT_STORE_ROOT,
    host: str = "127.0.0.1",
    port: int = 8765,
    workers: int = 1,
) -> Tuple[SweepService, ThreadingHTTPServer]:
    """Build a started service + bound server pair (the CLI entry point).

    The caller owns the loop: call ``server.serve_forever()`` and, on the
    way out, ``server.shutdown()`` / ``service.close()``.
    """
    service = SweepService(store=store, workers=workers)
    service.start()
    server = create_server(service, host=host, port=port, quiet=False)
    return service, server
