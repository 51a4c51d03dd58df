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
  (identical requests are evaluated once — evaluation is deterministic in
  the request, so duplicates are pure cache hits);
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
*resumable across processes*: attach ``store=`` and run with
``resume=True`` and already-stored plan entries are answered from disk
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
import json
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
from .store import ResultStore, as_result_store


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
        the same (capacity-major, method-minor) order as
        :meth:`repro.api.Pipeline.sweep` and tables can be assembled by
        simple grouping.
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
    deduplication (identical request seen earlier in the plan);
    ``sim_cache_hits`` counts simulations answered from the per-worker
    :class:`~repro.routing.simulator.SimulationCache`; ``factory_builds`` /
    ``factory_cache_hits`` count factory-circuit construction.
    ``sim_stall_events`` (legacy retry count) / ``sim_distinct_stalls`` /
    ``sim_wakeups`` aggregate the simulator's stall counters over every
    evaluation — see :class:`~repro.routing.simulator.SimulationResult` for
    their semantics.  ``store_hits`` counts plan entries answered from the
    persistent :class:`~repro.api.store.ResultStore` during a resumed run
    (unique requests only — a duplicate of a stored request still counts as
    a ``duplicate_hit``).  The invariant
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
        """Fold one evaluation's pipeline counter delta into this record."""
        self.evaluations += delta.evaluations
        self.factory_builds += delta.factory_builds
        self.factory_cache_hits += delta.cache_hits
        self.sim_cache_hits += delta.sim_cache_hits
        self.fd_sweeps += delta.fd_sweeps
        self.fd_moves_accepted += delta.fd_moves_accepted
        self.sim_stall_events += delta.sim_stall_events
        self.sim_distinct_stalls += delta.sim_distinct_stalls
        self.sim_wakeups += delta.sim_wakeups
        self.build_seconds += delta.build_seconds
        self.map_seconds += delta.map_seconds
        self.sim_seconds += delta.sim_seconds

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of every counter."""
        return {
            "requests": self.requests,
            "evaluations": self.evaluations,
            "duplicate_hits": self.duplicate_hits,
            "store_hits": self.store_hits,
            "factory_builds": self.factory_builds,
            "factory_cache_hits": self.factory_cache_hits,
            "sim_cache_hits": self.sim_cache_hits,
            "fd_sweeps": self.fd_sweeps,
            "fd_moves_accepted": self.fd_moves_accepted,
            "sim_stall_events": self.sim_stall_events,
            "sim_distinct_stalls": self.sim_distinct_stalls,
            "sim_wakeups": self.sim_wakeups,
            "build_seconds": self.build_seconds,
            "map_seconds": self.map_seconds,
            "sim_seconds": self.sim_seconds,
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
        }

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
_WORKER_SIM_CONFIG: Optional[SimulatorConfig] = None


def _worker_init(sim_config: Optional[SimulatorConfig]) -> None:
    """Process-pool initializer: remember the default simulator config."""
    global _WORKER_SIM_CONFIG, _WORKER_PIPELINE
    _WORKER_SIM_CONFIG = sim_config
    _WORKER_PIPELINE = None


def _worker_pipeline() -> Pipeline:
    """The worker's lazily created process-wide pipeline."""
    global _WORKER_PIPELINE
    if _WORKER_PIPELINE is None:
        _WORKER_PIPELINE = Pipeline(sim_config=_WORKER_SIM_CONFIG)
    return _WORKER_PIPELINE


def _worker_evaluate(
    request: EvaluationRequest,
) -> Tuple[FactoryEvaluation, PipelineStats, float]:
    """Evaluate one request in a worker; returns point, stat delta, wall time."""
    pipeline = _worker_pipeline()
    before = pipeline.stats.snapshot()
    started = time.perf_counter()
    evaluation = pipeline.evaluate(request)
    return evaluation, pipeline.stats.delta(before), time.perf_counter() - started


def _request_key(request: EvaluationRequest) -> str:
    """Canonical dedup key: requests with equal keys evaluate identically."""
    return json.dumps(request.to_dict(), sort_keys=True)


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
    sim_config:
        Default simulator configuration for every evaluation (a request's
        own ``sim_config`` takes precedence), forwarded to each worker.
    store:
        Optional persistent :class:`~repro.api.store.ResultStore` (or a
        path, wrapped automatically).  When attached, every completed
        evaluation is persisted **as soon as it finishes** — in completion
        order, not plan order — so a killed sweep keeps everything it
        already computed.  Reads happen only on a *resumed* run (see
        ``resume``): plan entries already in the store are answered without
        dispatching any work, counted exactly in ``stats.store_hits``.
    resume:
        Default for :meth:`run`'s ``resume`` flag.  ``resume=True`` requires
        a store and makes the run skip already-stored requests; the output
        is byte-identical to an uninterrupted run either way, because
        evaluation is deterministic in the request.
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
    happens in the parent and is scheduling-independent.  Use
    :func:`take_last_run_stats` (or ``run(...).stats``) for the exact
    accounting of a run.

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
        sim_config: Optional[SimulatorConfig] = None,
        store: Optional[Union[ResultStore, str, Path]] = None,
        resume: bool = False,
        batch: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.batch = batch
        self.sim_config = sim_config
        self.store = as_result_store(store)
        if resume and self.store is None:
            raise ValueError("resume=True requires a result store (store=...)")
        self.resume = resume
        self._pipeline: Optional[Pipeline] = None

    # ------------------------------------------------------------------
    # Serial fallback pipeline
    # ------------------------------------------------------------------
    def pipeline(self) -> Pipeline:
        """The executor's own serial pipeline (persists across runs)."""
        if self._pipeline is None:
            self._pipeline = Pipeline(sim_config=self.sim_config)
        return self._pipeline

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        plan: Union[SweepPlan, Iterable[EvaluationRequest]],
        resume: Optional[bool] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> SweepRunResult:
        """Execute every request of ``plan``; results come back in plan order.

        Identical requests are evaluated once (the first occurrence) and
        fanned out to every duplicate position — a pure optimization, since
        evaluation is deterministic in the request.  With a store attached
        and ``resume=True`` (per call, or the executor default), requests
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
        resume = self.resume if resume is None else resume
        if resume and self.store is None:
            raise ValueError("resume=True requires a result store (store=...)")
        started = time.perf_counter()
        stats = ExecutorStats(requests=len(plan), workers=self.workers)

        # Deduplicate while preserving first-occurrence order.
        unique: List[EvaluationRequest] = []
        slot_of_key: Dict[str, int] = {}
        slots: List[int] = []
        for request in plan:
            key = _request_key(request)
            slot = slot_of_key.get(key)
            if slot is None:
                slot = len(unique)
                slot_of_key[key] = slot
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

        def report(slot: int, source: str, evaluation: FactoryEvaluation) -> None:
            nonlocal done_entries
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

        # On a resumed run, answer already-stored requests before scheduling
        # anything: a 10k-point sweep killed at 9k re-executes only 1k.
        unique_results: List[Optional[FactoryEvaluation]] = [None] * len(unique)
        pending = list(range(len(unique)))
        if resume and self.store is not None:
            still_pending: List[int] = []
            for index in pending:
                stored = self.store.get(self._storage_request(unique[index]))
                if stored is not None:
                    unique_results[index] = stored
                    stats.store_hits += 1
                    report(index, "store", stored)
                else:
                    still_pending.append(index)
            pending = still_pending

        if pending:
            if self.batch:
                self._run_batched(unique, unique_results, pending, stats, report)
            elif self.workers == 1 or len(pending) <= 1:
                self._run_serial(unique, unique_results, pending, stats, report)
            else:
                self._run_parallel(unique, unique_results, pending, stats, report)

        evaluations = [unique_results[slot] for slot in slots]
        stats.wall_seconds = time.perf_counter() - started
        result = SweepRunResult(evaluations=evaluations, stats=stats)
        global _LAST_RUN_STATS
        _LAST_RUN_STATS = stats
        return result

    def _storage_request(self, request: EvaluationRequest) -> EvaluationRequest:
        """The store identity of a request under this executor's defaults."""
        return request.with_effective_sim_config(self.sim_config)

    def _run_serial(
        self,
        unique: Sequence[EvaluationRequest],
        unique_results: List[Optional[FactoryEvaluation]],
        pending: Sequence[int],
        stats: ExecutorStats,
        report: Callable[[int, str, FactoryEvaluation], None],
    ) -> None:
        pipeline = self.pipeline()
        for index in pending:
            before = pipeline.stats.snapshot()
            tick = time.perf_counter()
            evaluation = pipeline.evaluate(unique[index])
            wall = time.perf_counter() - tick
            unique_results[index] = evaluation
            stats.add_pipeline_delta(pipeline.stats.delta(before))
            # Persist immediately: if the process dies on a later request,
            # everything up to here survives for a resumed run.
            if self.store is not None:
                self.store.try_put(
                    self._storage_request(unique[index]), evaluation, wall_seconds=wall
                )
            report(index, "evaluated", evaluation)

    def _run_batched(
        self,
        unique: Sequence[EvaluationRequest],
        unique_results: List[Optional[FactoryEvaluation]],
        pending: Sequence[int],
        stats: ExecutorStats,
        report: Callable[[int, str, FactoryEvaluation], None],
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
        wall = time.perf_counter() - tick
        stats.add_pipeline_delta(pipeline.stats.delta(before))
        share = wall / len(pending)
        for index, evaluation in zip(pending, evaluations):
            unique_results[index] = evaluation
            if self.store is not None:
                self.store.try_put(
                    self._storage_request(unique[index]),
                    evaluation,
                    wall_seconds=share,
                )
            report(index, "evaluated", evaluation)

    def _run_parallel(
        self,
        unique: Sequence[EvaluationRequest],
        unique_results: List[Optional[FactoryEvaluation]],
        pending: Sequence[int],
        stats: ExecutorStats,
        report: Callable[[int, str, FactoryEvaluation], None],
    ) -> None:
        workers = min(self.workers, len(pending))
        # Longest first: more levels, then higher capacity, so the slowest
        # points (paper-scale level 2) do not start last and leave the other
        # workers idle.  The sort is stable, so ties keep plan order.
        longest_first = sorted(
            pending,
            key=lambda index: (-unique[index].levels, -unique[index].capacity),
        )
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(self.sim_config,),
        ) as pool:
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
                index = futures[future]
                try:
                    evaluation, delta, wall = future.result()
                except Exception as error:
                    if first_error is None:
                        first_error = error
                    continue
                unique_results[index] = evaluation
                stats.add_pipeline_delta(delta)
                if self.store is not None:
                    self.store.try_put(
                        self._storage_request(unique[index]),
                        evaluation,
                        wall_seconds=wall,
                    )
                report(index, "evaluated", evaluation)
            if first_error is not None:
                raise first_error


#: Stats of the most recent ``SweepExecutor.run`` in this process — set even
#: when the executor was created internally (e.g. by ``capacity_sweep`` with
#: ``workers > 1``), so the ``repro-msfu bench`` command can report cache
#: behaviour it could not otherwise observe.
_LAST_RUN_STATS: Optional[ExecutorStats] = None


def take_last_run_stats() -> Optional[ExecutorStats]:
    """Pop the stats of the most recent executor run (``None`` if none ran)."""
    global _LAST_RUN_STATS
    stats = _LAST_RUN_STATS
    _LAST_RUN_STATS = None
    return stats


def recommended_workers() -> int:
    """A sensible default worker count: the machine's CPU count, at least 1."""
    return max(1, os.cpu_count() or 1)
