"""The benchmark's three workloads: seeded inputs, one pass each, output checks.

Every workload is a fixed amount of work generated from the seed alone;
the program under test sees only the generated requests.

``table1-l2``   mapping-heavy: every Table I level-2 procedure at capacities
                4 and 16 through ``Pipeline.evaluate``, no store.
``sim-sweep``   simulation-heavy: cheap mappers over two-level capacities
                16/36/64 crossed with ``max_candidates`` 1/2/4/8 through
                ``SweepExecutor(workers=1, batch=True)``.  Capacity 64's mesh
                is wider than the batched engine's limit, so those points fall
                back to per-point ``simulate``.
``service-mix`` store- and service-heavy: a closed loop of two HTTP clients
                against ``SweepService`` on loopback with a fresh store per
                pass: ~15% first-time level-1 evaluations (writes), ~50%
                re-reads and ~35% ``If-None-Match`` revalidations.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import random
import shutil
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

WORKLOADS = ("table1-l2", "sim-sweep", "service-mix")

#: Table I level-2 rows: (mapper, reuse).
TABLE1_ROWS = (
    ("random", False),
    ("linear", False),
    ("linear", True),
    ("force_directed", False),
    ("graph_partition", False),
    ("hierarchical_stitching", False),
)
TABLE1_CAPACITIES = (4, 16)
SWEEP_CAPACITIES = (16, 36, 64)
SWEEP_MAX_CANDIDATES = (1, 2, 4, 8)
SERVICE_OPS = 1200
SERVICE_MIX = {"write": 0.15, "read": 0.50, "revalidate": 0.35}
SERVICE_MAPPERS = (
    ("random", False),
    ("linear", False),
    ("linear", True),
    ("graph_partition", False),
    ("force_directed", False),
)
SERVICE_CAPACITIES = (2, 4, 6, 8, 10, 12)
SERVICE_CLIENTS = 2


def canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payload: Any) -> str:
    return hashlib.blake2b(canonical(payload).encode(), digest_size=16).hexdigest()


# ----------------------------------------------------------------------
# Inputs (a pure function of workload and seed)
# ----------------------------------------------------------------------
def _request(method, capacity, levels, reuse=False, seed=0, stitch_seed=None,
             max_candidates=None) -> Dict[str, Any]:
    from repro.api import EvaluationRequest
    from repro.mapping.stitching import StitchingConfig
    from repro.routing.simulator import SimulatorConfig

    return EvaluationRequest(
        method=method,
        capacity=capacity,
        levels=levels,
        reuse=reuse,
        seed=seed,
        stitch_config=(
            None if stitch_seed is None else StitchingConfig(seed=stitch_seed)
        ),
        sim_config=(
            None if max_candidates is None
            else SimulatorConfig(max_candidates=max_candidates)
        ),
    ).to_dict()


def make_inputs(workload: str, seed: int) -> Dict[str, Any]:
    """JSON-safe inputs of one workload; the seed picks mapper seeds,
    placements and request order."""
    rng = random.Random(f"{workload}:{seed}")
    draw = lambda: rng.randrange(1, 1 << 30)  # noqa: E731
    if workload == "table1-l2":
        requests = []
        for capacity in TABLE1_CAPACITIES:
            for method, reuse in TABLE1_ROWS:
                stitch = draw() if method == "hierarchical_stitching" else None
                requests.append(
                    _request(method, capacity, 2, reuse, draw(), stitch_seed=stitch)
                )
        rng.shuffle(requests)
        return {"requests": requests}
    if workload == "sim-sweep":
        random_seeds = (draw(), draw())
        requests = []
        for capacity in SWEEP_CAPACITIES:
            for max_candidates in SWEEP_MAX_CANDIDATES:
                for method, reuse, mapper_seed in (
                    ("linear", False, 0),
                    ("linear", True, 0),
                    ("random", False, random_seeds[0]),
                    ("random", False, random_seeds[1]),
                ):
                    requests.append(
                        _request(method, capacity, 2, reuse, mapper_seed,
                                 max_candidates=max_candidates)
                    )
        rng.shuffle(requests)
        return {"requests": requests}
    if workload == "service-mix":
        kinds = []
        for kind, share in SERVICE_MIX.items():
            kinds += [kind] * round(share * SERVICE_OPS)
        rng.shuffle(kinds)
        kinds.remove("write")
        kinds.insert(0, "write")  # something must be written before it is read
        pool = [
            (method, reuse, capacity)
            for method, reuse in SERVICE_MAPPERS
            for capacity in SERVICE_CAPACITIES
        ]
        # Every (mapper, capacity) is written equally often, so seeds differ
        # in mapper seeds and order but not in how much work they hold.
        order: List[tuple] = []
        while len(order) < kinds.count("write"):
            order += rng.sample(pool, len(pool))
        writes = iter(order)
        requests: List[Dict[str, Any]] = []
        ops = []
        for kind in kinds:
            if kind == "write":
                method, reuse, capacity = next(writes)
                requests.append(_request(method, capacity, 1, reuse, draw()))
                target = len(requests) - 1
            else:
                target = rng.randrange(len(requests))
            ops.append({"kind": kind, "request": target})
        return {"requests": requests, "ops": ops}
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def check_evaluation(result: Any) -> List[str]:
    """Problems with one evaluation dict (empty when it is sound)."""
    try:
        latency = result["latency"]
        area = result["area"]
        if latency < result["critical_latency"]:
            return [f"latency {latency} below critical {result['critical_latency']}"]
        if area < result["critical_area"]:
            return [f"area {area} below critical {result['critical_area']}"]
        if result["volume"] != latency * area:
            return [f"volume {result['volume']} != {latency} x {area}"]
    except (KeyError, TypeError) as error:
        return [f"malformed evaluation {result!r}: {error}"]
    return []


def check_response(status: int, etag: Optional[str], body: bytes,
                   fingerprint: str, expected: Dict[str, Any]) -> List[str]:
    """Problems with one ``POST /v1/evaluate`` response."""
    if status not in (200, 304):
        return [f"status {status}: {body[:200]!r}"]
    if etag != f'"{fingerprint}"':
        return [f"etag {etag!r} is not the store fingerprint {fingerprint}"]
    if status == 304:
        return [] if not body else ["304 carried a body"]
    try:
        result = json.loads(body)["result"]
    except (ValueError, KeyError, TypeError) as error:
        return [f"undecodable body: {error}"]
    if canonical(result) != canonical(expected):
        return ["body differs from a direct Pipeline.evaluate"]
    return check_evaluation(result)


def volume_ratio(evaluations: List[Dict[str, Any]]) -> float:
    """Geometric mean of volume / (critical latency x critical area)."""
    logs = [
        math.log(e["volume"] / (e["critical_latency"] * e["critical_area"]))
        for e in evaluations
    ]
    return math.exp(sum(logs) / len(logs)) if logs else float("nan")


# ----------------------------------------------------------------------
# One pass of a workload
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """What one pass produced; ``wall_s`` covers the fixed work only, and
    ``ref_s`` is ``wall_s`` at reference machine speed (see ``speed.py``)."""

    wall_s: float
    evaluations: List[Dict[str, Any]]
    digest: str
    attempted: int
    failures: List[str]
    factory_hit_ratio: float
    sim_hit_ratio: float
    reads_ms: List[float] = field(default_factory=list)
    writes_ms: List[float] = field(default_factory=list)
    client_s: float = 0.0
    not_modified: int = 0
    coalesced: int = 0
    ref_s: float = 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _factory_hit_ratio(stats) -> float:
    """Factory-cache hits over lookups of a ``PipelineStats``."""
    return _ratio(stats.cache_hits, stats.cache_hits + stats.factory_builds)


def run_table1(inputs, tracer, clock) -> Pass:
    from repro.api import EvaluationRequest, Pipeline

    requests = [EvaluationRequest.from_dict(r) for r in inputs["requests"]]
    pipeline = Pipeline()
    evaluations, failures = [], []
    span = tracer.open("workload.pass")
    with clock:
        for request in requests:
            try:
                evaluations.append(pipeline.evaluate(request).to_dict())
            except Exception as error:  # counted as a failed operation
                failures.append(f"{request.method}@{request.capacity}: {error!r}")
    tracer.close(span)
    stats = pipeline.stats
    return Pass(
        wall_s=clock.wall_s,
        ref_s=clock.ref_s,
        evaluations=evaluations,
        digest=digest(evaluations),
        attempted=len(requests),
        failures=failures + [p for e in evaluations for p in check_evaluation(e)],
        factory_hit_ratio=_factory_hit_ratio(stats),
        sim_hit_ratio=_ratio(stats.sim_cache_hits, stats.evaluations),
    )


def run_sweep(inputs, tracer, clock) -> Pass:
    from repro.api import EvaluationRequest
    from repro.api.executor import SweepExecutor, SweepPlan

    plan = SweepPlan.from_requests(
        EvaluationRequest.from_dict(r) for r in inputs["requests"]
    )
    span = tracer.open("workload.pass")
    error = None
    with clock:
        try:
            result = SweepExecutor(workers=1, batch=True).run(plan)
        except Exception as raised:  # the whole pass failed
            error = raised
    tracer.close(span)
    if error is not None:
        return Pass(clock.wall_s, [], "", len(plan), [repr(error)] * len(plan),
                    0.0, 0.0, ref_s=clock.ref_s)
    evaluations = [e.to_dict() for e in result.evaluations]
    stats = result.stats
    return Pass(
        wall_s=clock.wall_s,
        ref_s=clock.ref_s,
        evaluations=evaluations,
        digest=digest(evaluations),
        attempted=len(plan),
        failures=[p for e in evaluations for p in check_evaluation(e)],
        factory_hit_ratio=_ratio(
            stats.factory_cache_hits, stats.factory_cache_hits + stats.factory_builds
        ),
        sim_hit_ratio=_ratio(stats.sim_cache_hits, stats.evaluations),
    )


class ServiceMix:
    """Runs the service-mix op list; keeps references across passes."""

    def __init__(self, inputs, work_dir: Path) -> None:
        from repro.api import EvaluationRequest
        from repro.api.store import request_fingerprint

        self.inputs = inputs
        self.work_dir = work_dir
        self.requests = [EvaluationRequest.from_dict(r) for r in inputs["requests"]]
        self.bodies = [json.dumps(r).encode() for r in inputs["requests"]]
        self.fingerprints = [
            request_fingerprint(r.with_effective_sim_config()) for r in self.requests
        ]
        self._references: Optional[List[Dict[str, Any]]] = None

    def references(self) -> List[Dict[str, Any]]:
        """Direct ``Pipeline.evaluate`` of every distinct request."""
        if self._references is None:
            from repro.api import Pipeline

            pipeline = Pipeline()
            self._references = [pipeline.evaluate(r).to_dict() for r in self.requests]
        return self._references

    def run(self, tracer, clock) -> Pass:
        from repro.service.server import SweepService, create_server

        store_dir = self.work_dir / f"store-{uuid.uuid4().hex}"
        service = SweepService(store=store_dir, workers=1)
        service.start()
        server = create_server(service)
        port = server.server_address[1]
        serving = threading.Thread(target=server.serve_forever, args=(0.05,))
        serving.start()
        ops = self.inputs["ops"]
        responses: List[Any] = [None] * len(ops)
        cursor = iter(range(len(ops)))
        cursor_lock = threading.Lock()

        def client() -> None:
            # One connection per request, like the repository's urllib
            # clients.  On a kept-alive connection the server's separate
            # header and body writes meet delayed ACKs and every response
            # waits ~40 ms, which would hide everything else measured here.
            while True:
                with cursor_lock:
                    index = next(cursor, None)
                if index is None:
                    return
                op = ops[index]
                headers = {"Content-Type": "application/json"}
                if op["kind"] == "revalidate":
                    headers["If-None-Match"] = f'"{self.fingerprints[op["request"]]}"'
                connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
                try:
                    sent = time.perf_counter()
                    connection.request(
                        "POST", "/v1/evaluate", self.bodies[op["request"]], headers
                    )
                    reply = connection.getresponse()
                    body = reply.read()
                    elapsed = time.perf_counter() - sent
                    etag = reply.getheader("ETag")
                    responses[index] = (reply.status, etag, body, elapsed)
                except (OSError, http.client.HTTPException) as error:
                    responses[index] = error
                finally:
                    connection.close()

        clients = [threading.Thread(target=client) for _ in range(SERVICE_CLIENTS)]
        span = tracer.open("workload.pass")
        with clock:
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join()
        tracer.close(span)
        server.shutdown()
        server.server_close()
        serving.join()
        service.close()
        stats = service.pipeline.stats
        counters = service.counters
        shutil.rmtree(store_dir, ignore_errors=True)
        return self._finish(clock, ops, responses, stats, counters)

    def _finish(self, clock, ops, responses, stats, counters) -> Pass:
        references = self.references()
        failures: List[str] = []
        reads, writes, outcomes = [], [], []
        client_s = 0.0
        for index, (op, response) in enumerate(zip(ops, responses)):
            if not isinstance(response, tuple):
                failures.append(f"op {index} got no response: {response!r}")
                outcomes.append(None)
                continue
            status, etag, body, elapsed = response
            target = op["request"]
            failures += check_response(
                status, etag, body, self.fingerprints[target], references[target]
            )
            client_s += elapsed
            payload = {}
            if status == 200:
                try:
                    payload = json.loads(body)
                except ValueError:
                    pass  # already reported by check_response
            source = payload.get("source") if isinstance(payload, dict) else None
            (writes if source == "evaluated" else reads).append(elapsed * 1e3)
            outcomes.append([status, payload.get("result") if source else None])
        return Pass(
            wall_s=clock.wall_s,
            ref_s=clock.ref_s,
            evaluations=references,
            digest=digest(outcomes),
            attempted=len(ops),
            failures=failures,
            factory_hit_ratio=_factory_hit_ratio(stats),
            sim_hit_ratio=_ratio(stats.sim_cache_hits, stats.evaluations),
            reads_ms=reads,
            writes_ms=writes,
            client_s=client_s,
            not_modified=counters.not_modified,
            coalesced=counters.coalesced_hits,
        )

