"""On-disk, content-addressed persistence of evaluation results.

Every in-process cache of the toolchain (the factory LRU, the
:class:`~repro.routing.simulator.SimulationCache`) dies with its process:
a crashed 10k-point capacity sweep, a re-run CI job, or two analysts
sweeping overlapping grids all pay full simulation cost again.
:class:`ResultStore` is the cross-run layer below them — a directory of
sharded JSON payloads, one per evaluated
:class:`~repro.api.pipeline.EvaluationRequest`, addressed by a canonical
**fingerprint** of the request:

* :func:`request_fingerprint` — blake2b over the sorted-key JSON encoding
  of the request with its effective simulator config (a ``None`` config
  is the default one), salted with a schema/version tag.  Evaluation
  is deterministic in the request, so two equal fingerprints are guaranteed
  to name the same result, which makes the store a pure optimization;
* payloads carry the full ``EvaluationResult.to_dict()`` form plus
  provenance metadata (git SHA, platform, Python version, wall time,
  timestamps) so stored numbers can be audited and cross-machine
  comparisons annotated;
* a bump of :data:`STORE_SCHEMA_VERSION` changes every fingerprint, so old
  entries become unreachable (and are reported as stale by
  :meth:`ResultStore.status` / reaped by :meth:`ResultStore.gc`) instead of
  being misread.

The store is deliberately dependency-free and concurrency-tolerant: writes
go through a per-process temporary file and an atomic :func:`os.replace`,
reads treat truncated or garbage payloads as misses (with a
:class:`ResultStoreWarning`), and two processes racing to store the same
fingerprint simply write the same bytes.

Layout on disk (two-hex-digit sharding keeps directories small even at
hundreds of thousands of entries)::

    .repro-store/
        ab/
            ab3f...9c.json
        c0/
            c04d...11.json
"""

from __future__ import annotations

import functools
import json
import os
import platform
import subprocess
import threading
import time
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from ..persistutil import atomic_write_json, tagged_fingerprint
from .pipeline import EvaluationRequest
from .results import FactoryEvaluation

#: Version tag folded into every fingerprint.  Bump it whenever the meaning
#: of a stored payload changes (request encoding, result fields, simulator
#: semantics): old entries become unreachable misses rather than wrong hits.
STORE_SCHEMA_VERSION = 1

#: Default store root, relative to the current working directory.
DEFAULT_STORE_ROOT = ".repro-store"

_FINGERPRINT_TAG = "repro-msfu-store/v{version}"


class ResultStoreWarning(UserWarning):
    """A store entry was unreadable (truncated, garbage, or mislabelled)."""


class MergeConflictError(ValueError):
    """Two stores disagree about one fingerprint's payload.

    Raised by :meth:`ResultStore.merge` when a source entry carries the
    same fingerprint as an already-merged entry but a *different*
    request/result payload.  Evaluation is deterministic in the request,
    so this should be impossible for honest stores — a conflict means a
    corrupted entry, a hand-edited payload, or results produced by
    diverging code, and silently picking one side would poison the merged
    store.  ``--prefer-newest`` (``prefer_newest=True``) downgrades the
    error to keep the payload with the newest recorded creation time.
    """

    def __init__(self, fingerprint: str, source: str, into: str) -> None:
        self.fingerprint = fingerprint
        self.source = source
        self.into = into
        super().__init__(
            f"merge conflict on fingerprint {fingerprint}: the entry in "
            f"{source} differs from the one already in {into} (same "
            f"address, different request/result payload). Evaluations are "
            f"deterministic, so one side is corrupt or was produced by "
            f"diverging code; re-run the shard, or pass --prefer-newest "
            f"to keep the newest payload."
        )


def request_fingerprint(
    request: EvaluationRequest, *, schema_version: int = STORE_SCHEMA_VERSION
) -> str:
    """Canonical content address of one evaluation request.

    blake2b over the sorted-key, separator-normalized JSON encoding of
    the request with its effective simulator config
    (:meth:`~repro.api.pipeline.EvaluationRequest.with_effective_sim_config`),
    salted with the schema/version tag — so a ``None`` config and the
    explicit default share one address, the fingerprint is stable across
    processes and machines, and a schema bump re-addresses every request.
    It is also the executor's deduplication key and, as the plan
    fingerprint's parts, the sweep service's job identity.
    """
    canonical = json.dumps(
        request.with_effective_sim_config().to_dict(),
        sort_keys=True,
        separators=(",", ":"),
    )
    return tagged_fingerprint(
        _FINGERPRINT_TAG.format(version=schema_version), canonical
    )


@functools.lru_cache(maxsize=None)
def _git_sha_for(cwd: str) -> Optional[str]:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    sha = completed.stdout.strip()
    return sha or None


def current_git_sha(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """The repository HEAD SHA, or ``None`` outside a git checkout.

    Memoized per directory: :meth:`ResultStore.put` stamps provenance on
    every persisted result, and a 10k-point sweep must not pay 10k
    ``git rev-parse`` subprocess launches.  (A HEAD moved *during* a run
    keeps the SHA observed first, which is the honest provenance anyway.)
    """
    return _git_sha_for(
        os.path.abspath(os.fspath(cwd)) if cwd is not None else os.getcwd()
    )


def store_metadata(wall_seconds: Optional[float] = None) -> Dict[str, Any]:
    """Provenance attached to every stored payload (and bench record)."""
    now = time.time()
    return {
        "git_sha": current_git_sha(),
        "python_version": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "wall_seconds": wall_seconds,
        "created_unix": now,
        "created_utc": datetime.fromtimestamp(now, tz=timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
    }


@dataclass
class GcReport:
    """Outcome of one :meth:`ResultStore.gc` pass."""

    removed: List[str] = field(default_factory=list)
    kept: int = 0
    dry_run: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "removed": len(self.removed),
            "removed_paths": list(self.removed),
            "kept": self.kept,
            "dry_run": self.dry_run,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GcReport":
        """Inverse of :meth:`to_dict`.

        Accepts records written before ``removed_paths`` existed; those
        round-trip with an empty path list (the count key was lossy).
        """
        return cls(
            removed=list(data.get("removed_paths", [])),
            kept=int(data.get("kept", 0)),
            dry_run=bool(data.get("dry_run", False)),
        )


@dataclass
class StoreStatus:
    """One :meth:`ResultStore.status` scan as a structured record.

    The machine-readable face of ``repro-msfu sweep status --json``: CI
    jobs and fleet tooling assert store contents off these fields instead
    of screen-scraping the human table.
    """

    root: str
    schema_version: int
    entries: int = 0
    total_bytes: int = 0
    corrupt: int = 0
    stale_schema: int = 0
    oldest_utc: Optional[str] = None
    newest_utc: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "root": self.root,
            "schema_version": self.schema_version,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "corrupt": self.corrupt,
            "stale_schema": self.stale_schema,
            "oldest_utc": self.oldest_utc,
            "newest_utc": self.newest_utc,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StoreStatus":
        """Inverse of :meth:`to_dict`."""
        return cls(
            root=str(data.get("root", "")),
            schema_version=int(data.get("schema_version", 0)),
            entries=int(data.get("entries", 0)),
            total_bytes=int(data.get("total_bytes", 0)),
            corrupt=int(data.get("corrupt", 0)),
            stale_schema=int(data.get("stale_schema", 0)),
            oldest_utc=data.get("oldest_utc"),
            newest_utc=data.get("newest_utc"),
        )


@dataclass
class MergeSourceReport:
    """Per-source provenance accounting of one :meth:`ResultStore.merge`.

    Every source entry lands in exactly one bucket: ``merged`` (copied
    into the destination), ``identical`` (already present with the same
    payload — overlapping shards), ``conflicts`` (same fingerprint,
    different payload; fatal unless ``prefer_newest``), ``stale_schema``
    (a different schema generation, excluded — its fingerprints are not
    comparable), or ``corrupt`` (unreadable/mislabelled, skipped with a
    :class:`ResultStoreWarning`).  ``preferred`` counts the conflicts
    resolved in this source's favour under ``prefer_newest``.
    """

    root: str
    scanned: int = 0
    merged: int = 0
    identical: int = 0
    conflicts: int = 0
    preferred: int = 0
    stale_schema: int = 0
    bad_entries: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "root": self.root,
            "scanned": self.scanned,
            "merged": self.merged,
            "identical": self.identical,
            "conflicts": self.conflicts,
            "preferred": self.preferred,
            "stale_schema": self.stale_schema,
            "corrupt": self.bad_entries,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MergeSourceReport":
        """Inverse of :meth:`to_dict`."""
        return cls(
            root=str(data.get("root", "")),
            scanned=int(data.get("scanned", 0)),
            merged=int(data.get("merged", 0)),
            identical=int(data.get("identical", 0)),
            conflicts=int(data.get("conflicts", 0)),
            preferred=int(data.get("preferred", 0)),
            stale_schema=int(data.get("stale_schema", 0)),
            bad_entries=int(data.get("corrupt", 0)),
        )


@dataclass
class MergeReport:
    """Outcome of one :meth:`ResultStore.merge` pass, per source + totals."""

    into: str
    prefer_newest: bool = False
    sources: List[MergeSourceReport] = field(default_factory=list)

    def _total(self, name: str) -> int:
        return sum(getattr(source, name) for source in self.sources)

    @property
    def merged(self) -> int:
        return self._total("merged")

    @property
    def identical(self) -> int:
        return self._total("identical")

    @property
    def conflicts(self) -> int:
        return self._total("conflicts")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "into": self.into,
            "prefer_newest": self.prefer_newest,
            "merged": self.merged,
            "identical": self.identical,
            "conflicts": self.conflicts,
            "stale_schema": self._total("stale_schema"),
            "corrupt": self._total("bad_entries"),
            "sources": [source.to_dict() for source in self.sources],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MergeReport":
        """Inverse of :meth:`to_dict` (totals are recomputed, not stored)."""
        return cls(
            into=str(data.get("into", "")),
            prefer_newest=bool(data.get("prefer_newest", False)),
            sources=[
                MergeSourceReport.from_dict(item)
                for item in data.get("sources", [])
            ],
        )


class ResultStore:
    """Content-addressed on-disk memo of :class:`FactoryEvaluation` payloads.

    Parameters
    ----------
    root:
        Store directory (created lazily on first write).  Defaults to
        ``.repro-store`` under the current working directory.
    schema_version:
        Fingerprint schema tag; exposed for tests and migrations, normally
        left at :data:`STORE_SCHEMA_VERSION`.

    Notes
    -----
    ``hits`` / ``misses`` / ``puts`` / ``corrupt_skipped`` are
    process-lifetime counters on the *lookup* path, making the executor's
    ``store_hits`` accounting exact (maintenance scans — ``status``,
    ``gc`` — and reporting reads — :meth:`peek`, :meth:`contains` — do not
    move them).  They are updated under a lock the store owns, so threads
    sharing one store (the sweep service's request handlers and job
    worker) never lose each other's counts.  Entries are plain JSON files,
    so a store can be rsynced, committed, or inspected with ``jq``.
    """

    def __init__(
        self,
        root: Union[str, Path] = DEFAULT_STORE_ROOT,
        schema_version: int = STORE_SCHEMA_VERSION,
    ) -> None:
        self.root = Path(root)
        self.schema_version = schema_version
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt_skipped = 0
        self._counter_lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResultStore root={str(self.root)!r} v{self.schema_version}>"

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def fingerprint(self, request: EvaluationRequest) -> str:
        """The content address of ``request`` (``None`` config = the default)."""
        return request_fingerprint(request, schema_version=self.schema_version)

    def path_for(self, fingerprint: str) -> Path:
        """Sharded payload path of a fingerprint."""
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    @staticmethod
    def _read_payload(path: Path) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
        """Parse one payload file: ``(payload, None)``, or ``(None, problem)``.

        A missing file is ``(None, None)``; a truncated, garbage or
        non-object file is ``(None, message)``, and the caller decides
        whether that is worth a warning or a counter.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return None, None
        except (OSError, ValueError, UnicodeDecodeError) as error:
            return None, f"result store: skipping unreadable entry {path} ({error})"
        if not isinstance(payload, dict):
            return None, f"result store: skipping non-object entry {path}"
        return payload, None

    def _load(
        self, request: EvaluationRequest
    ) -> Tuple[Optional[FactoryEvaluation], Optional[str]]:
        """Uncounted read: ``(evaluation, None)`` on a hit, else ``(None, problem)``.

        ``problem`` is ``None`` for a plain miss (no entry) and a message
        for an entry that exists but cannot serve the probe.
        """
        fingerprint = self.fingerprint(request)
        payload, problem = self._read_payload(self.path_for(fingerprint))
        if payload is None:
            return None, problem
        if (
            payload.get("schema_version") != self.schema_version
            or payload.get("fingerprint") != fingerprint
        ):
            return None, (
                f"result store: entry {fingerprint} is mislabelled "
                f"(schema_version={payload.get('schema_version')!r}); skipping"
            )
        try:
            return FactoryEvaluation.from_dict(payload["result"]), None
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            return None, (
                f"result store: entry {fingerprint} has an undecodable "
                f"result ({error}); skipping"
            )

    def get(self, request: EvaluationRequest) -> Optional[FactoryEvaluation]:
        """The stored evaluation of ``request``, or ``None`` (a miss).

        Payloads that are unreadable, or whose embedded schema version or
        fingerprint does not match the probe — manual edits, partial writes
        that survived as valid JSON, foreign-schema leftovers — are treated
        as misses with a :class:`ResultStoreWarning`, never as crashes or
        wrong answers.
        """
        evaluation, problem = self._load(request)
        if problem is not None:
            warnings.warn(problem, ResultStoreWarning, stacklevel=2)
        with self._counter_lock:
            if evaluation is not None:
                self.hits += 1
            else:
                self.misses += 1
                if problem is not None:
                    self.corrupt_skipped += 1
        return evaluation

    def peek(self, request: EvaluationRequest) -> Optional[FactoryEvaluation]:
        """:meth:`get` as a reporting read: no counters, no warnings."""
        return self._load(request)[0]

    def contains(self, request: EvaluationRequest) -> bool:
        """Whether a readable, correctly labelled entry exists (no counters)."""
        return self.peek(request) is not None

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def put(
        self,
        request: EvaluationRequest,
        evaluation: FactoryEvaluation,
        wall_seconds: Optional[float] = None,
    ) -> str:
        """Persist one evaluation; returns its fingerprint.

        The write is atomic (temporary file + :func:`os.replace`), so a
        killed sweep never leaves a half-written entry under the final
        name, and two processes storing the same fingerprint are safe.
        The payload records the request with its effective simulator
        config, the form its fingerprint is taken over.
        """
        request = request.with_effective_sim_config()
        fingerprint = self.fingerprint(request)
        path = self.path_for(fingerprint)
        payload = {
            "schema_version": self.schema_version,
            "fingerprint": fingerprint,
            "request": request.to_dict(),
            "result": evaluation.to_dict(),
            "meta": store_metadata(wall_seconds),
        }
        atomic_write_json(path, payload, indent=2, sort_keys=True)
        with self._counter_lock:
            self.puts += 1
        return fingerprint

    def try_put(
        self,
        request: EvaluationRequest,
        evaluation: FactoryEvaluation,
        wall_seconds: Optional[float] = None,
    ) -> Optional[str]:
        """:meth:`put`, degrading write failures to a warning.

        The pipeline and executor treat the store as a pure optimization:
        a full disk or permission error must cost the *persistence* of a
        result, never the sweep that computed it.  Returns the fingerprint,
        or ``None`` when the write failed.
        """
        try:
            return self.put(request, evaluation, wall_seconds)
        except OSError as error:
            warnings.warn(
                f"result store: could not persist an entry under "
                f"{self.root} ({error}); continuing without it",
                ResultStoreWarning,
                stacklevel=2,
            )
            return None

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    @staticmethod
    def _is_shard_name(name: str) -> bool:
        """Whether a directory name is a two-hex-digit payload shard.

        Anything else under the root — e.g. the ``jobs/`` directory the
        sweep service keeps its job records in — belongs to another layer
        and must stay invisible to ``status``/``gc``/``len`` scans.
        """
        return len(name) == 2 and all(c in "0123456789abcdef" for c in name)

    def _entry_paths(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir() or not self._is_shard_name(shard.name):
                continue
            for path in sorted(shard.glob("*.json")):
                yield path

    def entries(self) -> Iterator[Tuple[Path, Optional[Dict[str, Any]]]]:
        """Every entry path with its parsed payload (``None`` if corrupt).

        A maintenance scan, not a lookup: corrupt entries are reported in
        the yielded pairs (with a :class:`ResultStoreWarning`) without
        touching the ``corrupt_skipped`` counter.
        """
        for path in self._entry_paths():
            payload, problem = self._read_payload(path)
            if problem is not None:
                warnings.warn(problem, ResultStoreWarning, stacklevel=2)
            yield path, payload

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def _entry_age_seconds(
        self, path: Path, payload: Optional[Dict[str, Any]], now: float
    ) -> float:
        """Entry age: recorded creation time, file mtime for corrupt files."""
        if payload is not None:
            created = (payload.get("meta") or {}).get("created_unix")
            if isinstance(created, (int, float)):
                return now - float(created)
        try:
            return now - path.stat().st_mtime
        except OSError:  # pragma: no cover - raced with a concurrent gc
            return 0.0

    def counters(self) -> Dict[str, int]:
        """Process-lifetime lookup-path counters (``/v1/status`` reporting).

        These are the counters documented on the class: ``hits`` /
        ``misses`` / ``puts`` / ``corrupt_skipped`` move only on the
        lookup/write path, never during maintenance scans.
        """
        with self._counter_lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "corrupt_skipped": self.corrupt_skipped,
            }

    def status_record(self) -> StoreStatus:
        """Aggregate view of the store as a structured :class:`StoreStatus`."""
        record = StoreStatus(
            root=str(self.root), schema_version=self.schema_version
        )
        oldest: Optional[float] = None
        newest: Optional[float] = None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResultStoreWarning)
            for path, payload in self.entries():
                record.entries += 1
                try:
                    record.total_bytes += path.stat().st_size
                except OSError:  # pragma: no cover - raced with deletion
                    pass
                if payload is None:
                    record.corrupt += 1
                    continue
                if payload.get("schema_version") != self.schema_version:
                    record.stale_schema += 1
                created = (payload.get("meta") or {}).get("created_unix")
                if isinstance(created, (int, float)):
                    created = float(created)
                    oldest = created if oldest is None else min(oldest, created)
                    newest = created if newest is None else max(newest, created)

        def _utc(stamp: Optional[float]) -> Optional[str]:
            if stamp is None:
                return None
            return datetime.fromtimestamp(stamp, tz=timezone.utc).strftime(
                "%Y-%m-%dT%H:%M:%SZ"
            )

        record.oldest_utc = _utc(oldest)
        record.newest_utc = _utc(newest)
        return record

    def status(self) -> Dict[str, Any]:
        """Aggregate view of the store for ``repro-msfu sweep status``.

        The plain-dict face of :meth:`status_record`, kept for existing
        callers (the sweep service's ``/v1/status`` among them).
        """
        return self.status_record().to_dict()

    def gc(
        self,
        keep_days: float,
        dry_run: bool = False,
        now: Optional[float] = None,
    ) -> GcReport:
        """Remove entries older than ``keep_days`` days; keep everything else.

        Age comes from each payload's recorded creation time; corrupt
        payloads (whose metadata is unreadable) age by file mtime.  With
        ``dry_run`` nothing is deleted, only reported.
        """
        if keep_days < 0:
            raise ValueError(f"keep_days must be >= 0, got {keep_days}")
        reference = time.time() if now is None else now
        horizon = keep_days * 86400.0
        report = GcReport(dry_run=dry_run)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResultStoreWarning)
            for path, payload in self.entries():
                if self._entry_age_seconds(path, payload, reference) > horizon:
                    report.removed.append(path.stem)
                    if not dry_run:
                        try:
                            path.unlink()
                        except OSError:  # pragma: no cover - concurrent gc
                            pass
                else:
                    report.kept += 1
        return report

    # ------------------------------------------------------------------
    # Merging (distributed sweeps)
    # ------------------------------------------------------------------
    @staticmethod
    def _payload_digest(payload: Mapping[str, Any]) -> str:
        """Content digest of what a store entry *means*.

        Covers the request and result payloads only — provenance metadata
        (timestamps, machine, git SHA) legitimately differs between shard
        machines that computed the same deterministic result, so it must
        not make honest duplicates look like conflicts.
        """
        canonical = json.dumps(
            {"request": payload.get("request"), "result": payload.get("result")},
            sort_keys=True,
            separators=(",", ":"),
        )
        return tagged_fingerprint("repro-msfu-merge/v1", canonical)

    def merge(
        self,
        sources: Iterable[Union["ResultStore", str, Path]],
        prefer_newest: bool = False,
    ) -> MergeReport:
        """Union every source store's entries into this one.

        The distributed-sweep join: N shard machines run disjoint (or
        overlapping) pieces of one plan against private stores, and the
        coordinator merges by **union on fingerprint** — no coordination
        protocol needed, because the fingerprint is a content address and
        evaluation is deterministic in the request.  Per source entry:

        * fingerprint absent from this store → the payload file is copied
          (atomically, byte-equivalent re-serialization);
        * fingerprint present with an equal request/result digest → an
          identical duplicate (overlapping shards), left as is;
        * fingerprint present with a *different* digest → a
          :class:`MergeConflictError` by default; with ``prefer_newest``
          the payload with the newest ``meta.created_unix`` wins;
        * stale-schema entries are excluded (their fingerprints are not
          comparable across generations) and corrupt/mislabelled entries
          are skipped with a :class:`ResultStoreWarning` — exactly the
          read-path discipline of :meth:`get`.

        Sources merge in the order given; a corrupt *destination* entry is
        healed by the first readable source payload for its fingerprint.
        Returns a :class:`MergeReport` with per-source accounting.
        """
        report = MergeReport(into=str(self.root), prefer_newest=prefer_newest)
        own_root = self.root.resolve()
        for source in sources:
            resolved = as_result_store(source)
            assert resolved is not None  # sources are never None entries
            if resolved.root.resolve() == own_root:
                raise ValueError(
                    f"cannot merge store {resolved.root} into itself"
                )
            source_report = MergeSourceReport(root=str(resolved.root))
            report.sources.append(source_report)
            for path, payload in resolved.entries():
                source_report.scanned += 1
                if payload is None:
                    source_report.bad_entries += 1
                    warnings.warn(
                        f"merge: skipping unreadable source entry {path}",
                        ResultStoreWarning,
                        stacklevel=2,
                    )
                    continue
                fingerprint = payload.get("fingerprint")
                if fingerprint != path.stem:
                    source_report.bad_entries += 1
                    warnings.warn(
                        f"merge: skipping mislabelled source entry {path} "
                        f"(fingerprint field {fingerprint!r})",
                        ResultStoreWarning,
                        stacklevel=2,
                    )
                    continue
                if payload.get("schema_version") != self.schema_version:
                    source_report.stale_schema += 1
                    continue
                destination = self.path_for(fingerprint)
                # A corrupt destination entry is healed by the copy below,
                # so it is read without a warning.
                existing, _ = self._read_payload(destination)
                if existing is not None and (
                    existing.get("fingerprint") != fingerprint
                    or existing.get("schema_version") != self.schema_version
                ):
                    existing = None  # mislabelled destination: heal it
                if existing is None:
                    atomic_write_json(
                        destination, payload, indent=2, sort_keys=True
                    )
                    source_report.merged += 1
                    continue
                if self._payload_digest(existing) == self._payload_digest(
                    payload
                ):
                    source_report.identical += 1
                    continue
                source_report.conflicts += 1
                if not prefer_newest:
                    raise MergeConflictError(
                        fingerprint, str(resolved.root), str(self.root)
                    )
                if self._created_unix(payload) > self._created_unix(existing):
                    atomic_write_json(
                        destination, payload, indent=2, sort_keys=True
                    )
                    source_report.preferred += 1
        return report

    @staticmethod
    def _created_unix(payload: Mapping[str, Any]) -> float:
        """Recorded creation time of a payload (0.0 when absent)."""
        created = (payload.get("meta") or {}).get("created_unix")
        return float(created) if isinstance(created, (int, float)) else 0.0


def as_result_store(
    store: Optional[Union["ResultStore", str, Path]]
) -> Optional[ResultStore]:
    """Normalize a store argument: pass instances through, wrap paths."""
    if store is None or isinstance(store, ResultStore):
        return store
    return ResultStore(store)
