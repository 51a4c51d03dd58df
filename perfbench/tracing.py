"""Outside-in tracing for the benchmark of record.

Nothing under ``src/`` knows about this module.  :class:`Instrumentation`
wraps the public entry point of each layer (module functions wherever a
``repro`` module holds a reference to them, and methods on their classes)
with span recorders and counters while it is installed, and restores the
originals when it is removed.  Spans live in memory; :meth:`Tracer.chrome`
renders them as Chrome trace-event JSON (opens in Perfetto or
``chrome://tracing``) and :func:`self_times` gives the per-layer self-time
summary, where self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional


@dataclass
class Span:
    """One timed call: ``parent`` is the id of the enclosing span, if any."""

    sid: int
    parent: Optional[int]
    name: str
    tid: int
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-aware span and counter recorder (one parent stack per thread)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            sid=next(self._ids),
            parent=stack[-1].sid if stack else None,
            name=name,
            tid=threading.get_ident(),
            start=time.perf_counter(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def reset(self) -> None:
        """Drop recorded spans and counters (open spans are unaffected)."""
        with self._lock:
            self.spans = []
            self.counters = defaultdict(float)

    def chrome(self, spans: Optional[Iterable[Span]] = None) -> Dict[str, Any]:
        """Chrome trace-event JSON ("X" complete events, microseconds)."""
        spans = self.spans if spans is None else list(spans)
        origin = min((span.start for span in spans), default=0.0)
        tids: Dict[int, int] = {}
        events = []
        for span in sorted(spans, key=lambda s: s.start):
            tid = tids.setdefault(span.tid, len(tids) + 1)
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": round((span.start - origin) * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "pid": os.getpid(),
                    "tid": tid,
                    "args": {"id": span.sid, "parent": span.parent},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def self_times(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total seconds and self seconds.

    Children run on their parent's thread and nest inside it, so the time
    they cover is the sum of their durations.
    """
    spans = list(spans)
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    summary: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = summary.setdefault(
            span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["total_s"] += span.duration
        entry["self_s"] += span.duration - child_time[span.sid]
    return summary


class _TimedLock:
    """A lock proxy recording how long each acquisition waited."""

    def __init__(self, lock, tracer: Tracer, name: str) -> None:
        self._lock = lock
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        span = self._tracer.open(self._name)
        self._lock.acquire()
        self._tracer.close(span)
        return self

    def __exit__(self, *exc) -> None:
        self._lock.release()


class Instrumentation:
    """Wraps each layer's entry points with spans while installed."""

    MAPPERS = (
        ("RandomMapper", "random"),
        ("LinearMapper", "linear"),
        ("ForceDirectedMapper", "force_directed"),
        ("GraphPartitionMapper", "graph_partition"),
        ("HierarchicalStitchingMapper", "hierarchical_stitching"),
    )

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._restore: List[tuple] = []

    # -- generic wrappers -----------------------------------------------
    def _traced(self, original: Callable, name: str, after=None) -> Callable:
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap_function(self, module: str, attr: str, name: str, after=None) -> None:
        """Wrap a module function in every ``repro`` module that holds it."""
        original = getattr(sys.modules[module], attr)
        wrapper = self._traced(original, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def wrap_method(self, cls: type, attr: str, name: str, after=None) -> None:
        self._patch(cls, attr, self._traced(vars(cls)[attr], name, after))

    # -- install / remove -----------------------------------------------
    def install(self) -> None:
        from repro.api import executor, mappers, pipeline, store
        from repro.mapping import force_directed
        from repro.routing import batchsim  # noqa: F401  (binds simulate)
        from repro.service import server

        tracer = self.tracer

        def fd_stats(args, result):
            # Peek at the record the refine just appended; taking it would
            # hide it from the pipeline, which takes these records itself.
            pending = force_directed._PENDING_REFINE_STATS
            if pending:
                tracer.count("mapping.fd.sweeps", pending[-1].sweeps)
                tracer.count("mapping.fd.moves_proposed", pending[-1].proposed_moves)
                tracer.count("mapping.fd.moves_accepted", pending[-1].accepted_moves)

        def sim_stats(result) -> None:
            tracer.count("routing.sim.cycles", result.latency)
            tracer.count("routing.sim.stall_events", result.stall_events)
            tracer.count("routing.sim.wakeups", result.wakeups)

        def simulate_after(args, result):
            tracer.count("routing.simulate.calls")
            parent = tracer.current()
            if parent is not None and parent.name == "routing.batch":
                tracer.count("routing.batch.fallback_points")
            else:
                sim_stats(result)

        def batch_after(args, results):
            tracer.count("routing.batch.points", len(results))
            for result in results:
                sim_stats(result)

        def get_after(args, result):
            if result is not None:
                tracer.count("store.get.hits")

        service_init = server.SweepService.__init__

        def init_with_timed_lock(service, *args, **kwargs):
            service_init(service, *args, **kwargs)
            service._pipeline_lock = _TimedLock(
                service._pipeline_lock, tracer, "service.lock_wait"
            )

        self.wrap_function(
            "repro.distillation.block_code", "build_factory", "distillation.build"
        )
        self.wrap_function(
            "repro.graphs.interaction", "interaction_graph", "graphs.interaction"
        )
        self.wrap_function(
            "repro.mapping.force_directed",
            "force_directed_refine",
            "mapping.fd.refine",
            fd_stats,
        )
        self.wrap_function(
            "repro.mapping.stitching", "optimize_permutation_hops", "mapping.hs.hops"
        )
        self.wrap_function(
            "repro.scheduling.critical_path",
            "factory_latency_lower_bound",
            "scheduling.lower_bound",
        )
        self.wrap_function(
            "repro.routing.simulator", "simulation_cache_key", "routing.cache_key"
        )
        self.wrap_function(
            "repro.routing.simulator", "simulate", "routing.simulate", simulate_after
        )
        self.wrap_function(
            "repro.routing.batchsim", "simulate_batch", "routing.batch", batch_after
        )
        self.wrap_function(
            "repro.service.wire", "decode_evaluation_request", "service.decode"
        )
        for cls_name, mapper in self.MAPPERS:
            self.wrap_method(
                getattr(mappers, cls_name), "place", f"mapping.place.{mapper}"
            )
        self.wrap_method(pipeline.Pipeline, "evaluate", "pipeline.evaluate")
        self.wrap_method(pipeline.Pipeline, "evaluate_batch", "pipeline.evaluate")
        self.wrap_method(executor.SweepExecutor, "run", "executor.run")
        self.wrap_method(store.ResultStore, "get", "store.get", get_after)
        self.wrap_method(store.ResultStore, "put", "store.put")
        self.wrap_method(store.ResultStore, "fingerprint", "store.fingerprint")
        self.wrap_method(server.SweepService, "evaluate", "service.evaluate")
        self._patch(server.SweepService, "__init__", init_with_timed_lock)

    def remove(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
