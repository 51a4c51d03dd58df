"""Distributed sweep sharding over mergeable stores.

The paper's evaluation sweeps (Figs. 7/10, Table I) are embarrassingly
parallel, and the :class:`~repro.api.store.ResultStore` is content-addressed
with atomic per-entry files — so N machines can run pieces of one
:class:`~repro.api.executor.SweepPlan` against *private* stores with **no
coordination protocol at all** and a coordinator can join them afterwards
by union on ``request_fingerprint`` (:meth:`ResultStore.merge`).  This
module turns the single-machine resume machinery into that fleet-scale
primitive:

* :class:`ShardSpec` — a deterministic partition of a plan's positions
  (``contiguous`` block or ``strided`` round-robin).  Shard identity is a
  :func:`~repro.persistutil.tagged_fingerprint` over the plan fingerprint
  plus ``index/count`` and strategy, so a shard names exactly one piece of
  exactly one plan, on every machine;
* :func:`plan_fingerprint` — the content address of a whole plan (the
  ordered per-request *store* fingerprints), the same identity the sweep
  service keys its jobs by;
* :class:`ClaimDir` — optional file-based **work stealing**: shards claim
  pending points through atomic exclusive claim files in a shared
  directory (:func:`~repro.persistutil.exclusive_write_json`, which
  publishes via ``os.link`` after an atomic temp-file write), so a fast
  shard finishes a slow shard's tail.  Claims are an optimization only:
  losing a race, crashing mid-claim, or running with no claim directory
  at all never changes *what* the union of the shard stores serializes
  to — only who computed which entry;
* :func:`run_shard` — execute one shard against its private store with
  crash-safe resume, then (with a claim directory) steal still-unclaimed
  foreign points.

The invariant the whole layer is built on, and that the test suite and the
CI ``shard-merge`` job enforce end to end: **any union of shard stores —
disjoint, overlapping, or killed mid-run and resumed — serializes
byte-identical to one uninterrupted sweep**, because evaluation is
deterministic in the request and the store is a pure content-addressed
memo of it.
"""

from __future__ import annotations

import json
import time
import warnings
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
    Tuple,
    Union,
)

from ..persistutil import (
    atomic_write_json,
    exclusive_write_json,
    tagged_fingerprint,
)
from .executor import ExecutorStats, SweepExecutor, SweepPlan, SweepProgress
from .pipeline import EvaluationRequest
from .results import FactoryEvaluation
from .store import (
    STORE_SCHEMA_VERSION,
    ResultStore,
    ResultStoreWarning,
    as_result_store,
    request_fingerprint,
)

#: The partitioning strategies :class:`ShardSpec` understands.
SHARD_STRATEGIES = ("contiguous", "strided")

#: Schema tag of the files ``sweep plan-split`` writes.
SHARD_FILE_SCHEMA = "repro-msfu-shard-file/v1"

#: Schema tag of work-stealing claim files.
CLAIM_SCHEMA = "repro-msfu-claim/v1"

_PLAN_FINGERPRINT_TAG = "repro-msfu-plan/v{version}"
_SHARD_FINGERPRINT_TAG = "repro-msfu-shard/v{version}"


def plan_fingerprint(
    plan: SweepPlan, *, schema_version: int = STORE_SCHEMA_VERSION
) -> str:
    """Canonical content address of a plan.

    blake2b over the *ordered* per-request store fingerprints (order is
    result order, so two plans differing only in order are different
    plans) — so plan identity is store identity one level up, stable
    across machines.
    """
    parts = "\n".join(
        request_fingerprint(request, schema_version=schema_version) for request in plan
    )
    return tagged_fingerprint(
        _PLAN_FINGERPRINT_TAG.format(version=schema_version), parts
    )


# ----------------------------------------------------------------------
# The partitioner
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """One deterministic piece of a sweep plan: ``index`` of ``count``.

    ``contiguous`` assigns balanced blocks of consecutive plan positions
    (block sizes differ by at most one); ``strided`` assigns every
    ``count``-th position starting at ``index`` — the better default when
    a plan's cost ramps along an axis (e.g. capacity-major grids), since
    every shard then samples the whole cost range.  Together the ``count``
    shards of either strategy cover every plan position exactly once.
    """

    index: int
    count: int
    strategy: str = "contiguous"

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"shard index must be in [0, {self.count}), got {self.index}"
            )
        if self.strategy not in SHARD_STRATEGIES:
            raise ValueError(
                f"unknown shard strategy {self.strategy!r}; "
                f"expected one of {', '.join(SHARD_STRATEGIES)}"
            )

    def plan_indices(self, total: int) -> Tuple[int, ...]:
        """The plan positions this shard owns, in plan order."""
        if total < 0:
            raise ValueError(f"plan length must be >= 0, got {total}")
        if self.strategy == "strided":
            return tuple(range(self.index, total, self.count))
        start = self.index * total // self.count
        stop = (self.index + 1) * total // self.count
        return tuple(range(start, stop))

    def subplan(self, plan: SweepPlan) -> SweepPlan:
        """The owned piece of ``plan``, order preserved."""
        return SweepPlan.from_requests(
            plan[index] for index in self.plan_indices(len(plan))
        )

    def fingerprint(
        self,
        plan_fingerprint_value: str,
        schema_version: int = STORE_SCHEMA_VERSION,
    ) -> str:
        """Shard identity: the plan fingerprint tagged with this piece.

        Two shards of the same plan differ, the same ``index/count`` of two
        different plans differ, and the two strategies never collide — so a
        shard id names one piece of one plan, fleet-wide.
        """
        return tagged_fingerprint(
            _SHARD_FINGERPRINT_TAG.format(version=schema_version),
            f"{plan_fingerprint_value}\n{self.index}/{self.count}\n"
            f"{self.strategy}",
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "count": self.count,
            "strategy": self.strategy,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ShardSpec":
        """Inverse of :meth:`to_dict` (validation re-runs in ``__init__``)."""
        return cls(
            index=int(data["index"]),
            count=int(data["count"]),
            strategy=str(data.get("strategy", "contiguous")),
        )


def shard_specs(count: int, strategy: str = "contiguous") -> Tuple[ShardSpec, ...]:
    """The full partition: every :class:`ShardSpec` of ``index`` 0..count-1."""
    return tuple(ShardSpec(index, count, strategy) for index in range(count))


# ----------------------------------------------------------------------
# Shard files (``sweep plan-split`` <-> ``sweep shard --spec``)
# ----------------------------------------------------------------------
def write_shard_files(
    plan: SweepPlan,
    count: int,
    directory: Union[str, Path],
    strategy: str = "contiguous",
) -> List[Path]:
    """Write one self-contained shard file per piece of ``plan``.

    Each file carries the full plan plus its :class:`ShardSpec`, so a
    fleet can distribute the files alone — ``sweep shard --spec FILE``
    needs nothing else.  Returns the written paths in shard order.
    """
    directory = Path(directory)
    fingerprint = plan_fingerprint(plan)
    plan_payload = plan.to_dict()
    width = max(2, len(str(count - 1)))
    paths: List[Path] = []
    for spec in shard_specs(count, strategy):
        payload = {
            "schema": SHARD_FILE_SCHEMA,
            "plan_fingerprint": fingerprint,
            "shard": spec.to_dict(),
            "plan": plan_payload,
        }
        path = directory / f"shard-{spec.index:0{width}d}-of-{count}.json"
        atomic_write_json(path, payload, indent=2, sort_keys=True)
        paths.append(path)
    return paths


def load_shard_file(path: Union[str, Path]) -> Tuple[SweepPlan, ShardSpec]:
    """Parse one ``sweep plan-split`` file back into its plan and spec.

    Raises :class:`ValueError` on a foreign schema or when the recorded
    plan fingerprint no longer matches the plan's recomputed one (a file
    from a different store-schema generation must not be executed as if
    its addresses were current).
    """
    path = Path(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or payload.get("schema") != SHARD_FILE_SCHEMA:
        found = (
            repr(payload.get("schema"))
            if isinstance(payload, dict)
            else type(payload).__name__
        )
        raise ValueError(
            f"{path} is not a shard file (expected schema "
            f"{SHARD_FILE_SCHEMA!r}, got {found})"
        )
    plan = SweepPlan.from_dict(payload["plan"])
    spec = ShardSpec.from_dict(payload["shard"])
    recorded = payload.get("plan_fingerprint")
    recomputed = plan_fingerprint(plan)
    if recorded != recomputed:
        raise ValueError(
            f"{path} was written for a different plan encoding "
            f"(recorded plan fingerprint {recorded}, recomputed "
            f"{recomputed}); re-run 'sweep plan-split'"
        )
    return plan, spec


# ----------------------------------------------------------------------
# Work-stealing claims
# ----------------------------------------------------------------------
class ClaimDir:
    """File-based point claims shared by every shard of one plan.

    One claim file per unique sweep point (named by its store
    fingerprint), published atomically and *exclusively* — the first
    shard to link its claim into the shared directory owns the point.
    A shard re-encountering its **own** claim (after a crash and resume)
    reclaims it; a foreign claim means some other shard is on it (or
    already finished it), so the point is skipped and the merge step
    collects it from that shard's store.

    Claims are a pure anti-duplication optimization.  Every correctness
    property — completeness and byte-identity of the merged union — holds
    with claims lost, stale, or absent, because the stores themselves are
    content-addressed memos of deterministic evaluations.
    """

    def __init__(self, root: Union[str, Path], owner: str) -> None:
        self.root = Path(root)
        self.owner = owner

    def path_for(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.claim.json"

    def claim(self, fingerprint: str) -> str:
        """Try to claim one point; returns ``"won"``/``"ours"``/``"theirs"``."""
        published = exclusive_write_json(
            self.path_for(fingerprint),
            {
                "schema": CLAIM_SCHEMA,
                "fingerprint": fingerprint,
                "owner": self.owner,
                "created_unix": time.time(),
            },
            indent=2,
        )
        if published:
            return "won"
        return "ours" if self.owner_of(fingerprint) == self.owner else "theirs"

    def owner_of(self, fingerprint: str) -> Optional[str]:
        """The recorded owner of a claim, or ``None`` (unclaimed/unreadable)."""
        try:
            payload = json.loads(
                self.path_for(fingerprint).read_text(encoding="utf-8")
            )
        except FileNotFoundError:
            return None
        except (OSError, ValueError, UnicodeDecodeError) as error:
            # An unreadable claim file still marks the point as taken —
            # treating it as unclaimed could duplicate work, never lose it.
            warnings.warn(
                f"claim dir: unreadable claim for {fingerprint} ({error}); "
                f"treating the point as claimed by another shard",
                ResultStoreWarning,
                stacklevel=2,
            )
            return ""
        owner = payload.get("owner") if isinstance(payload, dict) else None
        return owner if isinstance(owner, str) else ""

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.claim.json"))


# ----------------------------------------------------------------------
# Shard execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardProgress:
    """One resolved point of a running shard (see :func:`run_shard`).

    ``phase`` is ``"own"`` for points of the shard's partition and
    ``"stolen"`` for foreign points won through the claim directory;
    ``source`` is the underlying executor's ``"store"``/``"evaluated"``.
    ``plan_index`` is the point's first-occurrence position in the *full*
    plan (not the subplan), so streamed events from different shards can
    be correlated against one plan.
    """

    done: int
    phase: str
    source: str
    plan_index: int
    fingerprint: str
    request: EvaluationRequest
    evaluation: FactoryEvaluation


#: Signature of the optional ``progress=`` callback of :func:`run_shard`.
ShardProgressCallback = Callable[[ShardProgress], None]


@dataclass
class ShardRunResult:
    """The outcome of :func:`run_shard` for one shard of one plan.

    ``own`` / ``yielded`` / ``stolen`` are first-occurrence plan positions:
    the partition this shard was assigned, the owned points it skipped
    because another shard already held their claim, and the foreign points
    it won and executed.  ``stats`` folds the executor accounting of every
    run the shard performed (own phase plus each stolen point).
    """

    shard: ShardSpec
    shard_id: str
    plan_fingerprint: str
    plan_entries: int
    unique_points: int
    own: List[int] = field(default_factory=list)
    yielded: List[int] = field(default_factory=list)
    stolen: List[int] = field(default_factory=list)
    stats: ExecutorStats = field(default_factory=ExecutorStats)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shard": self.shard.to_dict(),
            "shard_id": self.shard_id,
            "plan_fingerprint": self.plan_fingerprint,
            "plan_entries": self.plan_entries,
            "unique_points": self.unique_points,
            "own": list(self.own),
            "yielded": list(self.yielded),
            "stolen": list(self.stolen),
            "stats": self.stats.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ShardRunResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            shard=ShardSpec.from_dict(data["shard"]),
            shard_id=str(data.get("shard_id", "")),
            plan_fingerprint=str(data.get("plan_fingerprint", "")),
            plan_entries=int(data.get("plan_entries", 0)),
            unique_points=int(data.get("unique_points", 0)),
            own=list(data.get("own", [])),
            yielded=list(data.get("yielded", [])),
            stolen=list(data.get("stolen", [])),
            stats=ExecutorStats.from_dict(data.get("stats", {})),
        )


def run_shard(
    plan: Union[SweepPlan, Iterable[EvaluationRequest]],
    shard: ShardSpec,
    store: Union[ResultStore, str, Path],
    claim_dir: Optional[Union[str, Path]] = None,
    workers: int = 1,
    batch: bool = False,
    steal: bool = True,
    progress: Optional[ShardProgressCallback] = None,
) -> ShardRunResult:
    """Execute one shard of ``plan`` against its (usually private) store.

    Always resumable: already-stored points are answered from ``store``
    without dispatching work, so a SIGKILLed shard rerun with the same
    arguments re-executes only what the kill actually lost.  Plan
    positions group into *unique points* by store fingerprint; a point
    belongs to the shard owning its first-occurrence position (duplicates
    elsewhere are pure dedup, whichever shard owns them).

    With a ``claim_dir`` the shard claims each of its own points before
    evaluating (re-encountering its own claim after a crash reclaims it;
    a foreign claim means the point was stolen and is skipped), and after
    finishing its partition it walks the *foreign* points in plan order,
    claiming and executing any still unclaimed — so a fast shard finishes
    a slow shard's tail instead of idling.  Stolen results land in this
    shard's store like any other; the merge-by-union step makes them part
    of the plan's output no matter who computed them.

    Returns a :class:`ShardRunResult`; ``progress`` (if given) fires one
    :class:`ShardProgress` per resolved point, in completion order —
    the hook the ``--stream-output`` JSONL sink writes from.
    """
    if not isinstance(plan, SweepPlan):
        plan = SweepPlan.from_requests(plan)
    resolved_store = as_result_store(store)
    if resolved_store is None:
        raise ValueError("run_shard requires a result store (store=...)")
    fingerprint = plan_fingerprint(plan)
    shard_id = shard.fingerprint(fingerprint)
    result = ShardRunResult(
        shard=shard,
        shard_id=shard_id,
        plan_fingerprint=fingerprint,
        plan_entries=len(plan),
        unique_points=0,
        stats=ExecutorStats(),
    )

    # Unique points in plan order: (first position, store fingerprint,
    # request).  The store fingerprint is the claim identity, so shards
    # with different in-plan duplicate layouts still agree on point names.
    order: List[Tuple[int, str, EvaluationRequest]] = []
    seen: Dict[str, int] = {}
    for position, request in enumerate(plan):
        point_fp = resolved_store.fingerprint(request)
        if point_fp not in seen:
            seen[point_fp] = position
            order.append((position, point_fp, request))
    result.unique_points = len(order)

    owned_positions = frozenset(shard.plan_indices(len(plan)))
    own_points = [p for p in order if p[0] in owned_positions]
    foreign_points = [p for p in order if p[0] not in owned_positions]
    result.own = [position for position, _, _ in own_points]

    claims = (
        ClaimDir(claim_dir, shard_id) if claim_dir is not None else None
    )
    executor = SweepExecutor(workers=workers, store=resolved_store, batch=batch)

    done = 0

    def _run_points(
        points: List[Tuple[int, str, EvaluationRequest]], phase: str
    ) -> None:
        nonlocal done
        if not points:
            return
        positions = [position for position, _, _ in points]
        fingerprints = [point_fp for _, point_fp, _ in points]

        def relay(event: SweepProgress) -> None:
            nonlocal done
            done += 1
            if progress is not None:
                # The subplan has no duplicates (points are unique), so
                # every event resolves exactly one subplan position.
                local = event.plan_indices[0]
                progress(
                    ShardProgress(
                        done=done,
                        phase=phase,
                        source=event.source,
                        plan_index=positions[local],
                        fingerprint=fingerprints[local],
                        request=event.request,
                        evaluation=event.evaluation,
                    )
                )

        run = executor.run(
            SweepPlan.from_requests(request for _, _, request in points),
            resume=True,
            progress=relay,
        )
        result.stats.add_run(run.stats)

    # Phase 1: the shard's own partition (claim first when stealing is on,
    # so a thief and the owner never both simulate the same point).
    to_run: List[Tuple[int, str, EvaluationRequest]] = []
    for point in own_points:
        if claims is not None and claims.claim(point[1]) == "theirs":
            result.yielded.append(point[0])
            continue
        to_run.append(point)
    _run_points(to_run, "own")

    # Phase 2: steal the unclaimed tail of slower shards, point by point —
    # claiming just before executing keeps a thief from hoarding claims it
    # would then be slow to honour.
    if claims is not None and steal:
        for point in foreign_points:
            if claims.claim(point[1]) == "theirs":
                continue
            _run_points([point], "stolen")
            result.stolen.append(point[0])

    return result
