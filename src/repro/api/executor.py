"""Parallel sweep execution: explicit plans scheduled across worker processes.

The paper's evaluation (Figs. 6-10, Table I) is a large family of
independent (mapper, capacity, levels, reuse) simulation points.  This
module treats such a sweep as an explicit, serializable **plan** rather than
an implicit loop:

* :class:`SweepPlan` — an ordered tuple of
  :class:`~repro.api.pipeline.EvaluationRequest`s, typically expanded from a
  parameter grid with :meth:`SweepPlan.from_grid`;
* :class:`SweepExecutor` — runs a plan either serially (``workers=1``, the
  fallback) or across a :class:`concurrent.futures.ProcessPoolExecutor`,
  with **deterministic result ordering** (results always come back in plan
  order, whatever the completion order) and request-level deduplication
  (requests with one store fingerprint are evaluated once — evaluation is
  deterministic in the request, so duplicates are pure cache hits);
* :class:`SweepRunResult` — the evaluations in plan order plus an
  :class:`ExecutorStats` accounting of wall time and cache behaviour.
  ``to_dict()`` intentionally covers only the deterministic evaluations, so
  serialized results are byte-identical across worker counts.

Below the executor, every worker's :class:`~repro.api.pipeline.Pipeline`
memoizes :class:`~repro.routing.simulator.SimulationResult`s keyed by
(circuit fingerprint, placement, config) — see
:class:`~repro.routing.simulator.SimulationCache` — so repeated sweep
points never re-simulate even across distinct requests.  Above it, an
optional persistent :class:`~repro.api.store.ResultStore` makes sweeps
*resumable across processes*: ``SweepExecutor(store=...).run(plan,
resume=True)`` answers already-stored plan entries from disk
(``stats.store_hits``) while fresh results are persisted the moment they
complete, so a killed sweep restarts where it died with byte-identical
output.

.. code-block:: python

    from repro.api import SweepExecutor, SweepPlan

    plan = SweepPlan.from_grid(
        methods=("force_directed", "graph_partition"),
        capacities=(2, 4, 8, 16),
        levels=(1, 2),
    )
    result = SweepExecutor(workers=4).run(plan)
    for point in result.evaluations:   # plan order, identical to workers=1
        print(point.method, point.capacity, point.volume)
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..mapping.force_directed import ForceDirectedConfig
from ..mapping.stitching import StitchingConfig
from ..routing.simulator import SimulatorConfig
from .pipeline import EvaluationRequest, Pipeline, PipelineStats
from .results import FactoryEvaluation
from .store import ResultStore, as_result_store, request_fingerprint


def _as_tuple(value: Union[Any, Sequence[Any]]) -> Tuple[Any, ...]:
    """Normalize a scalar-or-iterable grid axis to a materialized tuple."""
    if isinstance(value, (str, bytes)):
        return (value,)
    try:
        return tuple(value)
    except TypeError:
        return (value,)


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPlan:
    """An ordered, serializable collection of independent evaluation requests.

    The plan order is the result order — executors must preserve it — so a
    plan fully determines its sweep's output, independent of how (or how
    parallel) it is executed.
    """

    requests: Tuple[EvaluationRequest, ...]

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    def __getitem__(self, index: int) -> EvaluationRequest:
        return self.requests[index]

    @classmethod
    def from_requests(cls, requests: Iterable[EvaluationRequest]) -> "SweepPlan":
        """Wrap an iterable of requests, preserving its order."""
        return cls(requests=tuple(requests))

    @classmethod
    def from_grid(
        cls,
        methods: Sequence[str],
        capacities: Sequence[int],
        levels: Union[int, Sequence[int]] = 1,
        reuse: Union[bool, Sequence[bool]] = False,
        seeds: Sequence[int] = (0,),
        fd_config: Optional[ForceDirectedConfig] = None,
        stitch_config: Optional[StitchingConfig] = None,
        sim_config: Optional[SimulatorConfig] = None,
        options: Optional[Mapping[str, Any]] = None,
    ) -> "SweepPlan":
        """Expand a parameter grid into one request per combination.

        Axes nest as (seed, levels, reuse, capacity, method), innermost
        last, so a plain ``from_grid(methods, capacities)`` enumerates in
        (capacity-major, method-minor) order and tables can be assembled
        by simple grouping.
        """
        # Materialize every axis first: the nested comprehension iterates
        # the inner axes once per outer combination, which would silently
        # truncate the grid for one-shot iterators.
        methods = _as_tuple(methods)
        capacities = _as_tuple(capacities)
        levels_axis = _as_tuple(levels)
        reuse_axis = _as_tuple(reuse)
        seeds_axis = _as_tuple(seeds)
        requests = tuple(
            EvaluationRequest(
                method=method,
                capacity=capacity,
                levels=level,
                reuse=reuse_flag,
                seed=seed,
                fd_config=fd_config,
                stitch_config=stitch_config,
                sim_config=sim_config,
                options=dict(options or {}),
            )
            for seed in seeds_axis
            for level in levels_axis
            for reuse_flag in reuse_axis
            for capacity in capacities
            for method in methods
        )
        return cls(requests=requests)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe encoding of every request, in plan order."""
        return {"requests": [request.to_dict() for request in self.requests]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepPlan":
        """Inverse of :meth:`to_dict`."""
        return cls(
            requests=tuple(
                EvaluationRequest.from_dict(item)
                for item in data.get("requests", [])
            )
        )


# ----------------------------------------------------------------------
# Results and accounting
# ----------------------------------------------------------------------
@dataclass
class ExecutorStats:
    """Exact accounting of one executor run.

    ``duplicate_hits`` counts plan entries answered by request-level
    deduplication (a request with the same store fingerprint seen earlier
    in the plan);
    ``sim_cache_hits`` counts simulations answered from the per-worker
    :class:`~repro.routing.simulator.SimulationCache`; ``factory_builds`` /
    ``factory_cache_hits`` count factory-circuit construction.
    ``sim_stall_events`` (legacy retry count) / ``sim_distinct_stalls`` /
    ``sim_wakeups`` aggregate the simulator's stall counters over every
    evaluation — see :class:`~repro.routing.simulator.SimulationResult` for
    their semantics.  ``store_hits`` counts plan entries answered from the
    persistent :class:`~repro.api.store.ResultStore` during a resumed run
    (unique requests only — a duplicate of a stored request still counts as
    a ``duplicate_hit``).  ``workers`` is the number of processes that
    evaluated: the pool's size when the run used one, else 1 (a batched
    run, a serial one, or one with at most one request to evaluate).  The
    invariant
    ``requests == duplicate_hits + store_hits + evaluations`` always holds.
    """

    requests: int = 0
    evaluations: int = 0
    duplicate_hits: int = 0
    store_hits: int = 0
    factory_builds: int = 0
    factory_cache_hits: int = 0
    sim_cache_hits: int = 0
    fd_sweeps: int = 0
    fd_moves_accepted: int = 0
    sim_stall_events: int = 0
    sim_distinct_stalls: int = 0
    sim_wakeups: int = 0
    build_seconds: float = 0.0
    map_seconds: float = 0.0
    sim_seconds: float = 0.0
    workers: int = 1
    wall_seconds: float = 0.0

    def add_pipeline_delta(self, delta: PipelineStats) -> None:
        """Fold one evaluation's pipeline counter delta into this record.

        Every :class:`PipelineStats` counter has a field of the same name
        here, except ``cache_hits``, which is ``factory_cache_hits``.
        """
        for stats_field in dataclasses.fields(PipelineStats):
            name = stats_field.name
            total = "factory_cache_hits" if name == "cache_hits" else name
            setattr(self, total, getattr(self, total) + getattr(delta, name))

    def add_run(self, part: "ExecutorStats") -> None:
        """Fold another run's record into this one (``workers`` is the max)."""
        for stats_field in dataclasses.fields(self):
            name = stats_field.name
            if name == "workers":
                self.workers = max(self.workers, part.workers)
            else:
                setattr(self, name, getattr(self, name) + getattr(part, name))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of every counter."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutorStats":
        """Inverse of :meth:`to_dict`; absent counters default to zero."""
        stats = cls()
        for counter_field in dataclasses.fields(cls):
            if counter_field.name in data:
                setattr(stats, counter_field.name, data[counter_field.name])
        return stats


@dataclass(frozen=True)
class SweepProgress:
    """One progress event of a running sweep (see ``SweepExecutor.run``).

    Fired once per *unique* request the moment it resolves — from the store
    on a resumed run (``source == "store"``) or from a completed evaluation
    (``source == "evaluated"``).  ``plan_indices`` are the plan positions
    this event resolves (the first occurrence plus every duplicate, which is
    why ``done``/``total`` count plan entries, not unique requests).
    ``done`` is cumulative and reaches ``total`` exactly when the run
    completes without errors.
    """

    done: int
    total: int
    source: str
    plan_indices: Tuple[int, ...]
    request: EvaluationRequest
    evaluation: FactoryEvaluation


#: Signature of the optional ``progress=`` callback of ``SweepExecutor.run``.
ProgressCallback = Callable[[SweepProgress], None]


@dataclass
class SweepRunResult:
    """The outcome of executing one :class:`SweepPlan`.

    ``evaluations`` is in plan order.  ``stats`` describes *how* the run
    went (wall time, worker count, cache hits) and is deliberately excluded
    from :meth:`to_dict`: the serialized result of a plan is byte-identical
    whether it ran on one worker or many.
    """

    evaluations: List[FactoryEvaluation]
    stats: ExecutorStats = field(default_factory=ExecutorStats)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe encoding of the (deterministic) evaluations only."""
        return {
            "evaluations": [evaluation.to_dict() for evaluation in self.evaluations]
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepRunResult":
        """Inverse of :meth:`to_dict` (stats are not round-tripped)."""
        return cls(
            evaluations=[
                FactoryEvaluation.from_dict(item)
                for item in data.get("evaluations", [])
            ]
        )


# ----------------------------------------------------------------------
# Worker-process plumbing
# ----------------------------------------------------------------------
# Each worker process holds one long-lived pipeline so the factory and
# simulation caches amortize across every request the worker receives.
_WORKER_PIPELINE: Optional[Pipeline] = None


def _worker_init() -> None:
    """Process-pool initializer: start the worker with no pipeline yet."""
    global _WORKER_PIPELINE
    _WORKER_PIPELINE = None


def _timed_evaluate(
    pipeline: Pipeline, request: EvaluationRequest
) -> Tuple[FactoryEvaluation, PipelineStats, float]:
    """Evaluate one request; returns the point, its stat delta and wall time."""
    before = pipeline.stats.snapshot()
    started = time.perf_counter()
    evaluation = pipeline.evaluate(request)
    return evaluation, pipeline.stats.delta(before), time.perf_counter() - started


def _worker_evaluate(
    request: EvaluationRequest,
) -> Tuple[FactoryEvaluation, PipelineStats, float]:
    """:func:`_timed_evaluate` on the worker's lazily created pipeline."""
    global _WORKER_PIPELINE
    if _WORKER_PIPELINE is None:
        _WORKER_PIPELINE = Pipeline()
    return _timed_evaluate(_WORKER_PIPELINE, request)


#: The completion step every runner calls once per evaluated unique slot:
#: ``complete(slot, evaluation, pipeline_delta, wall_seconds)``.
_Complete = Callable[[int, FactoryEvaluation, PipelineStats, float], None]


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class SweepExecutor:
    """Schedules a :class:`SweepPlan` serially or across worker processes.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``1`` (the default) runs everything
        serially in this process on a private long-lived pipeline — no
        subprocess, no pickling.  Values above 1 use a
        :class:`~concurrent.futures.ProcessPoolExecutor`; results and their
        order are identical to the serial run (evaluation is deterministic
        in the request and results are reassembled in plan order).
    store:
        Optional persistent :class:`~repro.api.store.ResultStore` (or a
        path, wrapped automatically).  When attached, every completed
        evaluation is persisted **as soon as it finishes** — in completion
        order, not plan order — so a killed sweep keeps everything it
        already computed.  Reads happen only on a *resumed* run
        (``run(plan, resume=True)``): plan entries already in the store are
        answered without dispatching any work, counted exactly in
        ``stats.store_hits``.
    batch:
        ``True`` routes the pending requests through the serial pipeline's
        batched evaluation path (:meth:`Pipeline.evaluate_batch`):
        simulation-cache probes still happen per request, and only the
        cache-missing simulations are grouped into one
        :func:`~repro.routing.batchsim.simulate_batch` call.  The batch
        *is* the parallelism, so this mode runs in-process and takes
        precedence over ``workers > 1``.  Results are byte-identical to the
        unbatched run in every mode combination.

    Notes
    -----
    Worker processes cache independently, so cross-request cache hits
    depend on which worker a request lands on; request-level deduplication
    happens in the parent and is scheduling-independent.
    ``run(...).stats`` is the exact accounting of a run.

    Mappers are resolved by name *inside* each worker.  On platforms whose
    process start method is ``fork`` (Linux, the default) workers inherit
    every mapper registered in the parent; under ``spawn`` (Windows,
    macOS defaults) a third-party mapper must be registered at import time
    of its module — e.g. via a registration decorator at module top level —
    so the re-imported worker sees it.
    """

    def __init__(
        self,
        workers: int = 1,
        store: Optional[Union[ResultStore, str, Path]] = None,
        batch: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.batch = batch
        self.store = as_result_store(store)
        self._pipeline: Optional[Pipeline] = None

    # ------------------------------------------------------------------
    # Serial fallback pipeline
    # ------------------------------------------------------------------
    def pipeline(self) -> Pipeline:
        """The executor's own serial pipeline (persists across runs)."""
        if self._pipeline is None:
            self._pipeline = Pipeline()
        return self._pipeline

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        plan: Union[SweepPlan, Iterable[EvaluationRequest]],
        resume: bool = False,
        progress: Optional[ProgressCallback] = None,
    ) -> SweepRunResult:
        """Execute every request of ``plan``; results come back in plan order.

        Requests with one store fingerprint
        (:func:`~repro.api.store.request_fingerprint`) are evaluated once
        (the first occurrence) and fanned out to every duplicate position —
        a pure optimization, since evaluation is deterministic in the
        request, and the reason one store entry always means one
        evaluation.  With a store attached and ``resume=True``, requests
        already persisted are answered from the store without dispatching
        any work — which is how a killed sweep restarts where it died — and
        every freshly computed result is persisted the moment it completes.
        The assembled output is byte-identical with or without the store.

        ``progress`` is called with one :class:`SweepProgress` per unique
        request the moment it resolves (after any store persistence), in
        completion order — the hook long-running drivers (the sweep service
        job queue) use to report completed/total counts and partial results
        while the run is still going.  Exceptions from the callback
        propagate and abort the run.
        """
        if not isinstance(plan, SweepPlan):
            plan = SweepPlan.from_requests(plan)
        if resume and self.store is None:
            raise ValueError("resume=True requires a result store (store=...)")
        started = time.perf_counter()
        stats = ExecutorStats(requests=len(plan))

        # Deduplicate by store identity while preserving first-occurrence
        # order.
        unique: List[EvaluationRequest] = []
        slot_of_fingerprint: Dict[str, int] = {}
        slots: List[int] = []
        for request in plan:
            fingerprint = request_fingerprint(request)
            slot = slot_of_fingerprint.get(fingerprint)
            if slot is None:
                slot = len(unique)
                slot_of_fingerprint[fingerprint] = slot
                unique.append(request)
            else:
                stats.duplicate_hits += 1
            slots.append(slot)

        # Progress accounting is over plan entries: resolving a unique slot
        # resolves its first occurrence plus every duplicate at once.
        indices_of_slot: List[List[int]] = [[] for _ in unique]
        for position, slot in enumerate(slots):
            indices_of_slot[slot].append(position)
        done_entries = 0
        unique_results: List[Optional[FactoryEvaluation]] = [None] * len(unique)

        def resolve(slot: int, source: str, evaluation: FactoryEvaluation) -> None:
            nonlocal done_entries
            unique_results[slot] = evaluation
            done_entries += len(indices_of_slot[slot])
            if progress is not None:
                progress(
                    SweepProgress(
                        done=done_entries,
                        total=len(slots),
                        source=source,
                        plan_indices=tuple(indices_of_slot[slot]),
                        request=unique[slot],
                        evaluation=evaluation,
                    )
                )

        def complete(
            slot: int,
            evaluation: FactoryEvaluation,
            delta: PipelineStats,
            wall_seconds: float,
        ) -> None:
            stats.add_pipeline_delta(delta)
            # Persist immediately: if the process dies on a later request,
            # everything up to here survives for a resumed run.
            if self.store is not None:
                self.store.try_put(unique[slot], evaluation, wall_seconds=wall_seconds)
            resolve(slot, "evaluated", evaluation)

        # On a resumed run, answer already-stored requests before scheduling
        # anything: a 10k-point sweep killed at 9k re-executes only 1k.
        pending = list(range(len(unique)))
        if resume and self.store is not None:
            still_pending: List[int] = []
            for index in pending:
                stored = self.store.get(unique[index])
                if stored is not None:
                    stats.store_hits += 1
                    resolve(index, "store", stored)
                else:
                    still_pending.append(index)
            pending = still_pending

        if pending:
            if self.batch:
                self._run_batched(unique, pending, complete)
            elif self.workers == 1 or len(pending) <= 1:
                self._run_serial(unique, pending, complete)
            else:
                stats.workers = min(self.workers, len(pending))
                self._run_parallel(unique, pending, complete, stats.workers)

        evaluations = [unique_results[slot] for slot in slots]
        stats.wall_seconds = time.perf_counter() - started
        return SweepRunResult(evaluations=evaluations, stats=stats)

    def _run_serial(
        self,
        unique: Sequence[EvaluationRequest],
        pending: Sequence[int],
        complete: _Complete,
    ) -> None:
        pipeline = self.pipeline()
        for index in pending:
            complete(index, *_timed_evaluate(pipeline, unique[index]))

    def _run_batched(
        self,
        unique: Sequence[EvaluationRequest],
        pending: Sequence[int],
        complete: _Complete,
    ) -> None:
        """The batching mode: one grouped pass over every pending request.

        Simulation-cache probes still happen per request inside
        :meth:`~repro.api.pipeline.Pipeline.evaluate_batch`; only the
        cache-missing simulations are batched.  Results land in the same
        unique slots as the serial runner, so the assembled output is
        byte-identical.  Persistence happens after the batch completes (the
        batch is one simulation call), so crash durability is per batch,
        not per request — a resumed run re-executes the interrupted batch's
        misses only, since everything stored beforehand is skipped.
        """
        pipeline = self.pipeline()
        before = pipeline.stats.snapshot()
        tick = time.perf_counter()
        evaluations = pipeline.evaluate_batch([unique[index] for index in pending])
        share = (time.perf_counter() - tick) / len(pending)
        # The batch's counter delta is folded in once, with its first result.
        delta = pipeline.stats.delta(before)
        for index, evaluation in zip(pending, evaluations):
            complete(index, evaluation, delta, share)
            delta = PipelineStats()

    def _run_parallel(
        self,
        unique: Sequence[EvaluationRequest],
        pending: Sequence[int],
        complete: _Complete,
        workers: int,
    ) -> None:
        # Longest first: more levels, then higher capacity, so the slowest
        # points (paper-scale level 2) do not start last and leave the other
        # workers idle.  The sort is stable, so ties keep plan order.
        longest_first = sorted(
            pending,
            key=lambda index: (-unique[index].levels, -unique[index].capacity),
        )
        with ProcessPoolExecutor(max_workers=workers, initializer=_worker_init) as pool:
            futures = {
                pool.submit(_worker_evaluate, unique[index]): index
                for index in longest_first
            }
            # Collect in completion order so each result is persisted the
            # moment it exists (crash durability); results land in their
            # unique slot, so the assembled output stays deterministic
            # whatever the scheduling.  On a worker failure, keep draining:
            # the pool shutdown runs every submitted request to completion
            # anyway, so persisting the successes before re-raising means a
            # resumed run re-executes only the genuinely failed work.
            first_error: Optional[BaseException] = None
            for future in as_completed(futures):
                try:
                    outcome = future.result()
                except Exception as error:
                    if first_error is None:
                        first_error = error
                    continue
                complete(futures[future], *outcome)
            if first_error is not None:
                raise first_error


def recommended_workers() -> int:
    """A sensible default worker count: the machine's CPU count, at least 1."""
    return max(1, os.cpu_count() or 1)
