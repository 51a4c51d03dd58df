"""The sweep service's background job queue, persisted through the store.

A *job* is one :class:`~repro.api.executor.SweepPlan` accepted by
``POST /v1/sweeps``, identified by :func:`plan_fingerprint` — the
content address of the ordered list of per-request store fingerprints, so
the job identity discipline is the same as the result identity discipline
one layer down.  That buys two service behaviours for free:

* **request coalescing** — a plan POSTed while an identical plan is already
  queued or running joins that job instead of enqueueing a second one
  (its evaluations would have been byte-identical anyway);
* **crash resume** — a job record (id, plan, state, timestamps) is a small
  JSON file under ``<store root>/jobs/``, written atomically at every state
  transition, while the job's *results* live in the content-addressed
  store the moment each point completes.  A killed server restarted on the
  same store finds the unfinished records, re-enqueues them, and the
  executor's ``resume=True`` path re-executes only the points the crash
  actually lost.

Jobs run on one background worker thread, FIFO; each plan is executed by a
:class:`~repro.api.executor.SweepExecutor` (whose ``workers`` processes are
the parallelism knob), with the executor's progress callback streaming
completed/total counts and partial results into the job record the service
reports from ``GET /v1/jobs/<id>``.

A submission may carry a :class:`~repro.api.sharding.ShardSpec`, in which
case the job executes only that deterministic piece of the plan and is
identified by the shard fingerprint — the service-side face of the
distributed sweep layer (:mod:`repro.api.sharding`): a coordinator splits
one plan across N service instances sharing nothing, then joins their
stores with ``sweep merge``.
"""

from __future__ import annotations

import json
import queue
import threading
import time
import warnings
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..api.executor import SweepExecutor, SweepPlan, SweepProgress
from ..api.sharding import ShardSpec, plan_fingerprint
from ..api.store import (
    ResultStore,
    ResultStoreWarning,
    as_result_store,
)
from ..persistutil import atomic_write_json

__all__ = [
    "JOBS_DIRNAME",
    "JOB_RECORD_SCHEMA",
    "Job",
    "JobManager",
    "JobState",
    "plan_fingerprint",  # canonical home: repro.api.sharding
]

#: Directory under the store root holding job records.  The name is not a
#: two-hex-digit shard, so store maintenance scans never see it.
JOBS_DIRNAME = "jobs"

#: Schema tag of persisted job records.
JOB_RECORD_SCHEMA = "repro-msfu-job/v1"


class JobState(str, Enum):
    """Lifecycle of a job: queued -> running -> completed | failed."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass
class Job:
    """One accepted sweep plan and everything the service reports about it.

    Mutable shared state: every field is written by the worker thread and
    read by HTTP handler threads, always under the owning
    :class:`JobManager`'s lock (use :meth:`JobManager.job_view` for a
    consistent snapshot).
    """

    job_id: str
    plan: SweepPlan
    #: When set, the job executes only this shard of ``plan`` (the job id is
    #: then the *shard* fingerprint, so distinct shards of one plan are
    #: distinct jobs while identical shard submissions still coalesce).
    shard: Optional[ShardSpec] = None
    state: JobState = JobState.QUEUED
    completed: int = 0
    created_unix: float = field(default_factory=time.time)
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    error: Optional[str] = None
    stats: Optional[Dict[str, Any]] = None
    #: Per-plan-position results (``None`` while unresolved), filled in
    #: completion order by the executor's progress callback.
    results: List[Optional[Dict[str, Any]]] = field(default_factory=list)
    #: How many POSTs landed on this job while it was active (>= 1).
    submissions: int = 1

    def __post_init__(self) -> None:
        if not self.results:
            self.results = [None] * len(self.effective_plan)

    @property
    def effective_plan(self) -> SweepPlan:
        """The requests this job actually executes (the shard's, if any)."""
        if self.shard is not None:
            return self.shard.subplan(self.plan)
        return self.plan

    @property
    def total(self) -> int:
        return len(self.effective_plan)

    @property
    def active(self) -> bool:
        return self.state in (JobState.QUEUED, JobState.RUNNING)


class JobManager:
    """FIFO background execution of sweep jobs against one result store.

    Parameters
    ----------
    store:
        The shared :class:`~repro.api.store.ResultStore` (or a path).  Job
        records persist under ``<root>/jobs/``; results persist as ordinary
        store entries.
    workers:
        Forwarded to the per-job :class:`~repro.api.executor.SweepExecutor`.
    """

    def __init__(
        self,
        store: Union[ResultStore, str, Path],
        workers: int = 1,
    ) -> None:
        resolved = as_result_store(store)
        if resolved is None:
            raise ValueError("JobManager requires a result store")
        self.store = resolved
        self.workers = workers
        self._jobs: Dict[str, Job] = {}
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        #: Set while no job is queued or running; tests and graceful
        #: shutdown wait on it.
        self._idle = threading.Event()
        self._idle.set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the worker thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run_loop, name="sweep-job-worker", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: Optional[float] = None) -> None:
        """Stop the worker after its current job (no new jobs are started)."""
        self._stop.set()
        self._queue.put(None)  # wake the worker if it is blocked on get()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is queued or running; ``True`` if reached."""
        return self._idle.wait(timeout)

    # ------------------------------------------------------------------
    # Submission and inspection
    # ------------------------------------------------------------------
    def submit(
        self, plan: SweepPlan, shard: Optional[ShardSpec] = None
    ) -> Tuple[Job, bool]:
        """Accept a plan (or one shard of it); returns ``(job, coalesced)``.

        An identical plan already queued or running is joined
        (``coalesced=True``) — the second client polls the same job id.  A
        plan whose previous job already finished is re-enqueued as a fresh
        run of the same id: with every point already persisted it completes
        entirely from ``store_hits``, which is exactly the repeat-client
        fast path.

        With ``shard`` set the job executes only that piece of the plan and
        is identified by the *shard* fingerprint, so a fleet can POST the
        same plan with every shard index to one service (or one service
        each) and the ids never collide — while two clients POSTing the
        same shard still coalesce.
        """
        if len(plan) == 0:
            raise ValueError("cannot submit an empty sweep plan")
        fingerprint = plan_fingerprint(plan)
        if shard is None:
            job_id = fingerprint
        else:
            if not shard.plan_indices(len(plan)):
                raise ValueError(
                    f"shard {shard.index}/{shard.count} of a "
                    f"{len(plan)}-entry plan is empty"
                )
            job_id = shard.fingerprint(fingerprint)
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None and existing.active:
                existing.submissions += 1
                return existing, True
            job = Job(job_id=job_id, plan=plan, shard=shard)
            self._jobs[job_id] = job
            self._idle.clear()
            self._persist(job)
            self._queue.put(job_id)
        return job, False

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def job_view(self, job_id: str) -> Optional[Dict[str, Any]]:
        """A consistent, JSON-safe snapshot of one job (or ``None``)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.state is JobState.COMPLETED and any(
                entry is None for entry in job.results
            ):
                self._fill_results_from_store(job)
            resolved = [
                {"index": index, "result": entry}
                for index, entry in enumerate(job.results)
                if entry is not None
            ]
            return {
                "job_id": job.job_id,
                "state": job.state.value,
                "shard": None if job.shard is None else job.shard.to_dict(),
                "completed": job.completed,
                "total": job.total,
                "created_unix": job.created_unix,
                "started_unix": job.started_unix,
                "finished_unix": job.finished_unix,
                "error": job.error,
                "stats": job.stats,
                "submissions": job.submissions,
                "results": resolved,
            }

    def summary(self) -> Dict[str, Any]:
        """Aggregate job counts for ``GET /v1/status``."""
        with self._lock:
            by_state = {state.value: 0 for state in JobState}
            for job in self._jobs.values():
                by_state[job.state.value] += 1
            return {
                "jobs": by_state,
                "in_flight": by_state["queued"] + by_state["running"],
            }

    def jobs_in_flight(self) -> int:
        with self._lock:
            return sum(1 for job in self._jobs.values() if job.active)

    # ------------------------------------------------------------------
    # Persistence and recovery
    # ------------------------------------------------------------------
    def _jobs_dir(self) -> Path:
        return self.store.root / JOBS_DIRNAME

    def _record_path(self, job_id: str) -> Path:
        return self._jobs_dir() / f"{job_id}.json"

    def _persist(self, job: Job) -> None:
        """Atomically write the job record (results live in the store)."""
        payload = {
            "schema": JOB_RECORD_SCHEMA,
            "job_id": job.job_id,
            "state": job.state.value,
            "total": job.total,
            "completed": job.completed,
            "created_unix": job.created_unix,
            "started_unix": job.started_unix,
            "finished_unix": job.finished_unix,
            "error": job.error,
            "stats": job.stats,
            "plan": job.plan.to_dict(),
            "shard": None if job.shard is None else job.shard.to_dict(),
        }
        try:
            atomic_write_json(self._record_path(job.job_id), payload, indent=2)
        except OSError as error:  # same degrade-to-warning policy as try_put
            warnings.warn(
                f"sweep service: could not persist job record "
                f"{job.job_id} ({error}); the job still runs, but a crash "
                f"before completion will not resume it",
                ResultStoreWarning,
                stacklevel=2,
            )

    def recover(self) -> List[Job]:
        """Load persisted job records; re-enqueue every unfinished one.

        Called once at server startup.  Completed/failed records are loaded
        for ``GET /v1/jobs/<id>`` visibility; queued/running records — jobs
        a previous server process died holding — are reset to queued and
        re-enqueued.  Their already-persisted points are answered from the
        store (``resume=True``), so only genuinely lost work re-executes.
        Returns the re-enqueued jobs.
        """
        jobs_dir = self._jobs_dir()
        if not jobs_dir.is_dir():
            return []
        requeued: List[Job] = []
        for path in sorted(jobs_dir.glob("*.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                if payload.get("schema") != JOB_RECORD_SCHEMA:
                    raise ValueError(f"schema {payload.get('schema')!r}")
                plan = SweepPlan.from_dict(payload["plan"])
                state = JobState(payload["state"])
                shard_payload = payload.get("shard")
                job = Job(
                    job_id=payload["job_id"],
                    plan=plan,
                    shard=(
                        None
                        if shard_payload is None
                        else ShardSpec.from_dict(shard_payload)
                    ),
                    state=state,
                    completed=int(payload.get("completed") or 0),
                    created_unix=float(payload.get("created_unix") or time.time()),
                    started_unix=payload.get("started_unix"),
                    finished_unix=payload.get("finished_unix"),
                    error=payload.get("error"),
                    stats=payload.get("stats"),
                )
            except (OSError, KeyError, TypeError, ValueError) as error:
                warnings.warn(
                    f"sweep service: skipping unreadable job record {path} "
                    f"({error})",
                    ResultStoreWarning,
                    stacklevel=2,
                )
                continue
            with self._lock:
                if job.job_id in self._jobs:
                    continue
                if job.active:
                    # The previous process died mid-job: run it again from
                    # the store (resume re-executes only the missing points).
                    job.state = JobState.QUEUED
                    job.completed = 0
                    job.started_unix = None
                    self._jobs[job.job_id] = job
                    self._idle.clear()
                    self._persist(job)
                    self._queue.put(job.job_id)
                    requeued.append(job)
                else:
                    self._jobs[job.job_id] = job
        return requeued

    def _fill_results_from_store(self, job: Job) -> None:
        """Backfill a recovered completed job's results from the store.

        Caller holds the lock.  The store reads are
        :meth:`~repro.api.store.ResultStore.peek`: this is reporting, not a
        lookup on the evaluation path, so no counter moves.
        """
        for index, request in enumerate(job.effective_plan):
            if job.results[index] is not None:
                continue
            stored = self.store.peek(request)
            if stored is not None:
                job.results[index] = stored.to_dict()

    # ------------------------------------------------------------------
    # The worker loop
    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        while not self._stop.is_set():
            try:
                job_id = self._queue.get(timeout=0.2)
            except queue.Empty:
                with self._lock:
                    if not any(job.active for job in self._jobs.values()):
                        self._idle.set()
                continue
            if job_id is None:  # shutdown sentinel
                continue
            with self._lock:
                job = self._jobs.get(job_id)
                if job is None or job.state is not JobState.QUEUED:
                    continue
                job.state = JobState.RUNNING
                job.started_unix = time.time()
                self._persist(job)
            self._execute(job)
            with self._lock:
                if not any(j.active for j in self._jobs.values()):
                    self._idle.set()

    def _execute(self, job: Job) -> None:
        executor = SweepExecutor(workers=self.workers, store=self.store)

        def on_progress(event: SweepProgress) -> None:
            payload = event.evaluation.to_dict()
            with self._lock:
                job.completed = event.done
                for index in event.plan_indices:
                    job.results[index] = payload

        try:
            result = executor.run(
                job.effective_plan, resume=True, progress=on_progress
            )
        except Exception as error:  # the job fails; the service survives
            with self._lock:
                job.state = JobState.FAILED
                job.error = f"{type(error).__name__}: {error}"
                job.finished_unix = time.time()
                self._persist(job)
            return
        with self._lock:
            job.state = JobState.COMPLETED
            job.completed = job.total
            job.results = [
                evaluation.to_dict() for evaluation in result.evaluations
            ]
            job.stats = result.stats.to_dict()
            job.finished_unix = time.time()
            self._persist(job)
