"""Command-line interface: run any registered experiment from the shell.

The per-experiment options are generated from each experiment's declared
:class:`~repro.api.experiments.ParamSpec` list, so experiments registered
with :func:`repro.api.register_experiment` — including third-party ones —
show up here automatically with their own ``--help``.

Examples
--------
List the available experiments::

    repro-msfu list

Run the Fig. 6 correlation study with 40 random mappings::

    repro-msfu run fig6 --num-mappings 40

Run the two-level Table I block over the full paper capacity range, as
machine-readable JSON written to a file::

    repro-msfu run table1-level2 --capacities 4,16,36,64,100 --json --output table1.json

Run the Fig. 7 scaling sweep across 4 worker processes::

    repro-msfu run fig7b --workers 4

Benchmark the experiment suite and record the perf trajectory point::

    repro-msfu bench --workers 4 --output BENCH_fig7.json
    repro-msfu bench --smoke           # reduced sweep, writes BENCH_<timestamp>.json

Diff two bench records and fail on slowdowns (the CI regression gate)::

    repro-msfu bench --compare BENCH_old.json BENCH_new.json --max-slowdown 3.0

Run a resumable sweep against the persistent result store, inspect it,
and expire old entries::

    repro-msfu sweep run --methods linear,force_directed --capacities 2,4,8 \
        --store .repro-store --resume --workers 4 --json --output sweep.json
    repro-msfu sweep status --store .repro-store
    repro-msfu sweep gc --store .repro-store --keep-days 30

Split a sweep across a fleet (each shard on its own machine and private
store, stealing stragglers' work through a shared claim directory), then
join the stores — the merged store reproduces the unsharded sweep byte
for byte::

    repro-msfu sweep plan-split --methods linear,force_directed \
        --capacities 2,4,8 --shards 3 --strategy strided --out-dir shards/
    repro-msfu sweep shard --spec shards/shard-00-of-3.json \
        --store store-0 --claim-dir claims/        # ... one per machine
    repro-msfu sweep merge store-0 store-1 store-2 --into merged
    repro-msfu sweep run --methods linear,force_directed --capacities 2,4,8 \
        --store merged --resume --json             # 0 evaluations: all from store

Serve the evaluation API over HTTP (shared store, job queue, request
coalescing, fingerprint-ETag revalidation)::

    repro-msfu serve --host 127.0.0.1 --port 8765 --store .repro-store --workers 4
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import sys
import time
from datetime import datetime, timezone
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from .api.benchcompare import (
    BenchRecordError,
    compare_bench_records,
    load_bench_record,
)
from .api.executor import SweepExecutor, SweepPlan
from .api.experiments import (
    ExperimentSpec,
    available_experiments,
    get_experiment,
    parse_int_list,
)
from .api.pipeline import RequestError
from .api.sharding import (
    SHARD_STRATEGIES,
    ShardSpec,
    load_shard_file,
    plan_fingerprint,
    run_shard,
    write_shard_files,
)
from .api.store import (
    DEFAULT_STORE_ROOT,
    MergeConflictError,
    ResultStore,
    current_git_sha,
)
from .persistutil import atomic_write_json, write_jsonl_line


def _parse_capacities(text: str) -> List[int]:
    """Parse a comma-separated capacity list such as ``"4,16,36"``."""
    try:
        return parse_int_list(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from error


_KIND_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "int_list": _parse_capacities,
}


def _add_param_options(parser: argparse.ArgumentParser, spec: ExperimentSpec) -> None:
    """Generate one ``--option`` per declared experiment parameter."""
    for param in spec.params:
        if param.kind == "flag":
            parser.add_argument(
                param.option,
                dest=param.name,
                action="store_true",
                default=None,
                help=param.help or None,
            )
            continue
        help_text = param.help or param.name.replace("_", " ")
        if param.default is not None:
            help_text += f" (default: {param.default})"
        parser.add_argument(
            param.option,
            dest=param.name,
            type=_KIND_PARSERS[param.kind],
            default=None,
            help=help_text,
        )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro-msfu`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-msfu",
        description=(
            "Reproduction of 'Magic-State Functional Units' (MICRO 2018): "
            "run the paper's experiments on the reimplemented toolchain."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list the available experiments")
    list_parser.add_argument(
        "--json", action="store_true", help="emit the listing as JSON"
    )

    run_parser = subparsers.add_parser("run", help="run one experiment")
    experiment_parsers = run_parser.add_subparsers(
        dest="experiment",
        required=True,
        metavar="experiment",
        help="experiment identifier (see 'list')",
    )
    for name in sorted(available_experiments()):
        spec = get_experiment(name)
        experiment_parser = experiment_parsers.add_parser(
            name, help=spec.description or None, description=spec.description or None
        )
        _add_param_options(experiment_parser, spec)
        experiment_parser.add_argument(
            "--json",
            action="store_true",
            help="emit the structured result as JSON instead of a table",
        )
        experiment_parser.add_argument(
            "--output",
            metavar="FILE",
            default=None,
            help="write the result to FILE instead of stdout",
        )

    bench_parser = subparsers.add_parser(
        "bench",
        help="benchmark experiments and write a BENCH_*.json perf record",
        description=(
            "Run a set of experiments under wall-clock timing and emit a "
            "machine-readable BENCH_*.json record (per-experiment wall time, "
            "simulated cycles, cache-hit accounting) that seeds the "
            "performance trajectory of the repository."
        ),
    )
    bench_parser.add_argument(
        "--experiments",
        metavar="NAMES",
        default=None,
        help="comma-separated experiment names to benchmark (default: all)",
    )
    bench_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for sweep experiments (1 = serial)",
    )
    bench_parser.add_argument(
        "--seed", type=int, default=None, help="random seed forwarded to experiments"
    )
    bench_parser.add_argument(
        "--smoke",
        action="store_true",
        help="use reduced parameter ranges so the whole bench finishes in seconds",
    )
    bench_parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help=(
            "record path (default: BENCH_<UTC timestamp>.json in the "
            "current directory)"
        ),
    )
    bench_parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD", "NEW"),
        default=None,
        help=(
            "compare two BENCH_*.json records instead of benchmarking: print "
            "a field-by-field diff table and exit nonzero on wall-time "
            "regressions beyond --max-slowdown (cross-machine diffs are "
            "advisory unless --strict)"
        ),
    )
    bench_parser.add_argument(
        "--max-slowdown",
        type=float,
        default=None,
        metavar="RATIO",
        help="failing new/old wall-time ratio for --compare (default: 1.5)",
    )
    bench_parser.add_argument(
        "--min-slowdown-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "absolute wall-time growth below which a ratio breach is noise, "
            "not a regression (--compare only; default: 0.05)"
        ),
    )
    bench_parser.add_argument(
        "--strict",
        action="store_true",
        help="make --compare regressions gate even across machines/scales",
    )

    _add_sweep_parsers(subparsers)
    _add_serve_parser(subparsers)
    return parser


def _add_serve_parser(subparsers) -> None:
    """The ``serve`` command: the long-running sweep service."""
    serve_parser = subparsers.add_parser(
        "serve",
        help="serve the evaluation API over HTTP (job queue + result store)",
        description=(
            "Run the stdlib-only sweep service: POST /v1/evaluate for one "
            "synchronous evaluation, POST /v1/sweeps to queue a sweep plan, "
            "GET /v1/jobs/<id> for progress, GET /v1/status for counters. "
            "Identical in-flight requests coalesce into one evaluation, "
            "warm clients revalidate by fingerprint ETag (304), and every "
            "result persists through the content-addressed store, so a "
            "killed server restarted on the same store resumes its jobs."
        ),
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8765,
        help="bind port (default: 8765; 0 = ephemeral)",
    )
    serve_parser.add_argument(
        "--store",
        metavar="DIR",
        default=DEFAULT_STORE_ROOT,
        help=f"result store root (default: {DEFAULT_STORE_ROOT})",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes per sweep job (1 = serial)",
    )

    lint_parser = subparsers.add_parser(
        "lint",
        help="check the codebase against the project-invariant rules",
        description=(
            "Static analysis of src/repro against the project's own "
            "invariants: schema-salted fingerprints, atomic JSON writes, "
            "lock-guarded service state, deterministic simulation paths, "
            "and to_dict/from_dict parity. Exits 1 on findings not covered "
            "by the committed baseline (lint-baseline.json)."
        ),
    )
    # Lazy import: lint is dev tooling, the hot CLI paths shouldn't pay
    # for it (mirrors how the rules themselves are only needed here).
    from .lint.cli import add_lint_arguments

    add_lint_arguments(lint_parser)


def _add_plan_source_options(parser: argparse.ArgumentParser) -> None:
    """The plan-defining options shared by ``sweep run/plan-split/shard``."""
    parser.add_argument(
        "--methods",
        metavar="NAMES",
        default=None,
        help="comma-separated mapper names (e.g. linear,force_directed)",
    )
    parser.add_argument(
        "--capacities",
        type=_parse_capacities,
        metavar="LIST",
        default=None,
        help="comma-separated factory capacities (e.g. 2,4,8)",
    )
    parser.add_argument(
        "--levels",
        type=_parse_capacities,
        metavar="LIST",
        default=None,
        help="comma-separated factory levels (default: 1)",
    )
    parser.add_argument(
        "--seeds",
        type=_parse_capacities,
        metavar="LIST",
        default=None,
        help="comma-separated mapper seeds (default: 0)",
    )
    parser.add_argument(
        "--reuse", action="store_true", help="sweep with qubit reuse enabled"
    )
    parser.add_argument(
        "--plan",
        metavar="FILE",
        default=None,
        help="JSON sweep plan (SweepPlan.to_dict form) instead of grid options",
    )


def _add_sweep_parsers(subparsers) -> None:
    """The ``sweep`` command family (persistent store): run / status / gc
    plus the distributed verbs plan-split / shard / merge."""
    sweep_parser = subparsers.add_parser(
        "sweep",
        help="resumable sweeps backed by the persistent result store",
        description=(
            "Run explicit sweep plans against the on-disk result store "
            "(.repro-store by default): a killed or re-run sweep re-executes "
            "only the requests not already stored, with byte-identical "
            "output.  'plan-split' / 'shard' / 'merge' distribute one plan "
            "across machines: each shard runs against a private store, and "
            "merging the stores reproduces the unsharded sweep byte for "
            "byte."
        ),
    )
    sweep_sub = sweep_parser.add_subparsers(dest="sweep_command", required=True)

    run_parser = sweep_sub.add_parser(
        "run", help="execute a sweep plan (grid options or --plan FILE)"
    )
    _add_plan_source_options(run_parser)
    run_parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = serial)"
    )
    run_parser.add_argument(
        "--batch",
        action="store_true",
        help=(
            "evaluate the sweep's cache-missing points through the batched "
            "simulator core (identical results; takes precedence over "
            "--workers)"
        ),
    )
    run_parser.add_argument(
        "--store",
        metavar="DIR",
        default=DEFAULT_STORE_ROOT,
        help=f"result store root (default: {DEFAULT_STORE_ROOT})",
    )
    run_parser.add_argument(
        "--resume",
        action="store_true",
        help="skip requests already in the store (restart a killed sweep)",
    )
    run_parser.add_argument(
        "--json", action="store_true", help="emit the structured result as JSON"
    )
    run_parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write the result to FILE instead of stdout",
    )
    run_parser.add_argument(
        "--stream-output",
        metavar="FILE",
        default=None,
        help=(
            "append one JSON line per resolved point, the moment it lands "
            "(flushed per line, so the log is complete even if the run is "
            "killed); the final result is still printed as usual"
        ),
    )

    split_parser = sweep_sub.add_parser(
        "plan-split",
        help="split a plan into N self-contained shard files",
        description=(
            "Write one shard file per piece of the plan into --out-dir; "
            "distribute the files to a fleet and run each with "
            "'sweep shard --spec FILE --store PRIVATE_DIR', then join the "
            "private stores with 'sweep merge'."
        ),
    )
    _add_plan_source_options(split_parser)
    split_parser.add_argument(
        "--shards",
        type=int,
        required=True,
        metavar="N",
        help="number of shards to split the plan into",
    )
    split_parser.add_argument(
        "--strategy",
        choices=SHARD_STRATEGIES,
        default="contiguous",
        help=(
            "partitioning strategy: contiguous blocks, or strided "
            "round-robin so every shard samples the whole cost range "
            "(default: contiguous)"
        ),
    )
    split_parser.add_argument(
        "--out-dir",
        metavar="DIR",
        required=True,
        help="directory to write the shard files into",
    )
    split_parser.add_argument(
        "--json", action="store_true", help="emit the split summary as JSON"
    )

    shard_parser = sweep_sub.add_parser(
        "shard",
        help="execute one shard of a plan (resumable, optional work stealing)",
        description=(
            "Run one deterministic piece of a plan against a (usually "
            "private) store.  Point to a 'sweep plan-split' file with "
            "--spec, or give a plan source plus --shard-index/--shard-count. "
            "With --claim-dir (a directory shared by every shard of the "
            "plan), shards claim points through atomic claim files and a "
            "fast shard steals a slow shard's unclaimed tail.  Re-running "
            "after a kill resumes: stored points are skipped, own claims "
            "are reclaimed."
        ),
    )
    shard_parser.add_argument(
        "--spec",
        metavar="FILE",
        default=None,
        help="shard file written by 'sweep plan-split' (plan + shard spec)",
    )
    _add_plan_source_options(shard_parser)
    shard_parser.add_argument(
        "--shard-index",
        type=int,
        default=None,
        metavar="I",
        help="this shard's index in [0, --shard-count) (with a plan source)",
    )
    shard_parser.add_argument(
        "--shard-count",
        type=int,
        default=None,
        metavar="N",
        help="total number of shards (with a plan source)",
    )
    shard_parser.add_argument(
        "--strategy",
        choices=SHARD_STRATEGIES,
        default="contiguous",
        help="partitioning strategy (default: contiguous)",
    )
    shard_parser.add_argument(
        "--store",
        metavar="DIR",
        default=DEFAULT_STORE_ROOT,
        help=f"this shard's result store (default: {DEFAULT_STORE_ROOT})",
    )
    shard_parser.add_argument(
        "--claim-dir",
        metavar="DIR",
        default=None,
        help=(
            "shared claim directory enabling work stealing between the "
            "shards of this plan"
        ),
    )
    shard_parser.add_argument(
        "--no-steal",
        action="store_true",
        help="claim own points but do not steal other shards' tails",
    )
    shard_parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = serial)"
    )
    shard_parser.add_argument(
        "--batch",
        action="store_true",
        help="evaluate through the batched simulator core (identical results)",
    )
    shard_parser.add_argument(
        "--json", action="store_true", help="emit the shard report as JSON"
    )
    shard_parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write the shard report to FILE instead of stdout",
    )
    shard_parser.add_argument(
        "--stream-output",
        metavar="FILE",
        default=None,
        help="append one JSON line per resolved point as it lands",
    )

    merge_parser = sweep_sub.add_parser(
        "merge",
        help="union shard stores into one store (byte-identical to unsharded)",
        description=(
            "Merge source stores into --into by union on request "
            "fingerprint.  Identical duplicate entries are fine "
            "(overlapping shards); the same fingerprint with a differing "
            "payload is a conflict: exit 1 by default, or keep the newest "
            "entry with --prefer-newest.  Corrupt source entries are "
            "skipped with a warning, stale-schema entries are excluded."
        ),
    )
    merge_parser.add_argument(
        "sources",
        nargs="+",
        metavar="SOURCE_DIR",
        help="source store roots, merged in order",
    )
    merge_parser.add_argument(
        "--into",
        metavar="DIR",
        required=True,
        help="destination store root (created if missing)",
    )
    merge_parser.add_argument(
        "--prefer-newest",
        action="store_true",
        help="resolve payload conflicts by keeping the newest entry",
    )
    merge_parser.add_argument(
        "--json", action="store_true", help="emit the merge report as JSON"
    )

    status_parser = sweep_sub.add_parser(
        "status", help="summarize the result store (entries, size, staleness)"
    )
    status_parser.add_argument(
        "--store",
        metavar="DIR",
        default=DEFAULT_STORE_ROOT,
        help=f"result store root (default: {DEFAULT_STORE_ROOT})",
    )
    status_parser.add_argument(
        "--json", action="store_true", help="emit the status as JSON"
    )

    gc_parser = sweep_sub.add_parser(
        "gc", help="remove store entries older than --keep-days"
    )
    gc_parser.add_argument(
        "--store",
        metavar="DIR",
        default=DEFAULT_STORE_ROOT,
        help=f"result store root (default: {DEFAULT_STORE_ROOT})",
    )
    gc_parser.add_argument(
        "--keep-days",
        type=float,
        required=True,
        metavar="DAYS",
        help="keep entries newer than this many days; remove the rest",
    )
    gc_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be removed without deleting anything",
    )
    gc_parser.add_argument(
        "--json", action="store_true", help="emit the gc report as JSON"
    )


#: Reduced ``--smoke`` parameter overrides per experiment, chosen so every
#: entry completes in seconds.  Experiments without an entry run at their
#: defaults.
SMOKE_OVERRIDES: Dict[str, Dict[str, Any]] = {
    "fig7a": {"capacities": [2, 4]},
    "fig7b": {"capacities": [4]},
    "fig9ab": {"capacities": [4]},
    "fig9cd": {"capacities": [4]},
    "fig10-single": {"capacities": [2, 4]},
    "fig10-two": {"capacities": [4]},
    "table1-level1": {"capacities": [2]},
    "table1-level2": {"capacities": [4]},
    "fig6": {"num_mappings": 5},
}


def _bench_kwargs(spec: ExperimentSpec, args: argparse.Namespace) -> Dict[str, Any]:
    """The kwargs one bench entry passes to its experiment runner."""
    param_names = {param.name for param in spec.params}
    kwargs: Dict[str, Any] = {}
    if args.smoke:
        for key, value in SMOKE_OVERRIDES.get(spec.name, {}).items():
            if key in param_names:
                kwargs[key] = value
    if args.seed is not None and "seed" in param_names:
        kwargs["seed"] = args.seed
    if args.workers != 1 and "workers" in param_names:
        kwargs["workers"] = args.workers
    return kwargs


def _bench_one(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Benchmark one experiment and return its JSON-safe record.

    The timed span builds a sweep experiment's requests, executes them on
    the experiment's own executor and assembles the result, so ``cache``
    holds that executor's stats and nothing that ran before it.  A plain
    runner (no requests) records ``"cache": null``.
    """
    spec = get_experiment(name)
    kwargs = _bench_kwargs(spec, args)
    started = time.perf_counter()
    _, swept = spec.execute(**kwargs)
    wall_seconds = time.perf_counter() - started

    record: Dict[str, Any] = {
        "experiment": name,
        "params": {key: value for key, value in kwargs.items()},
        "workers": kwargs.get("workers", 1),
        "wall_seconds": round(wall_seconds, 4),
        "sim_cycles": None,
        "stall_cycles": None,
        "evaluations": None,
        "cache": None,
    }
    if swept is not None:
        record["evaluations"] = len(swept.evaluations)
        record["sim_cycles"] = sum(e.latency for e in swept.evaluations)
        record["stall_cycles"] = sum(e.stall_cycles for e in swept.evaluations)
        record["cache"] = swept.stats.to_dict()
    return record


def run_bench_compare(args: argparse.Namespace) -> int:
    """The ``bench --compare`` mode: diff two records, gate on slowdowns."""
    ignored = [
        flag
        for flag, used in (
            ("--experiments", args.experiments is not None),
            ("--output", args.output is not None),
            ("--smoke", args.smoke),
            ("--workers", args.workers != 1),
            ("--seed", args.seed is not None),
        )
        if used
    ]
    if ignored:
        print(
            f"bench --compare: {', '.join(ignored)} only apply when "
            f"benchmarking, not when comparing records",
            file=sys.stderr,
        )
        return 2
    old_path, new_path = args.compare
    try:
        old_record = load_bench_record(old_path)
        new_record = load_bench_record(new_path)
        comparison = compare_bench_records(
            old_record,
            new_record,
            max_slowdown=(
                args.max_slowdown if args.max_slowdown is not None else 1.5
            ),
            min_slowdown_seconds=(
                args.min_slowdown_seconds
                if args.min_slowdown_seconds is not None
                else 0.05
            ),
        )
    except (BenchRecordError, ValueError) as error:
        print(f"bench --compare: {error}", file=sys.stderr)
        return 2
    print(comparison.format_table(strict=args.strict))
    return comparison.exit_code(strict=args.strict)


def run_bench(args: argparse.Namespace) -> int:
    """The ``bench`` command: time experiments and write the perf record."""
    if args.compare is not None:
        return run_bench_compare(args)
    compare_only = [
        flag
        for flag, used in (
            ("--max-slowdown", args.max_slowdown is not None),
            ("--min-slowdown-seconds", args.min_slowdown_seconds is not None),
            ("--strict", args.strict),
        )
        if used
    ]
    if compare_only:
        print(
            f"bench: {', '.join(compare_only)} only apply with --compare",
            file=sys.stderr,
        )
        return 2
    if args.experiments is None:
        names = available_experiments()
    else:
        names = [name.strip() for name in args.experiments.split(",") if name.strip()]
    if args.workers < 1:
        print(f"bench: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    known = set(available_experiments())
    unknown = [name for name in names if name not in known]
    if unknown:
        print(
            f"bench: unknown experiment(s) {', '.join(unknown)}; "
            f"see 'repro-msfu list'",
            file=sys.stderr,
        )
        return 2
    records = []
    for name in names:
        print(f"[bench] {name} ...", file=sys.stderr)
        record = _bench_one(name, args)
        print(
            f"[bench] {name}: {record['wall_seconds']:.2f}s"
            + (
                f", {record['sim_cycles']} simulated cycles"
                if record["sim_cycles"] is not None
                else ""
            ),
            file=sys.stderr,
        )
        records.append(record)

    payload = {
        "schema": "repro-msfu-bench/v1",
        "created_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "smoke": bool(args.smoke),
        # What the user asked for; each experiment entry's own "workers"
        # records what actually ran (experiments without a workers param
        # always run serially).
        "requested_workers": args.workers,
        # Provenance: lets `bench --compare` gate same-machine diffs hard and
        # annotate cross-machine diffs as advisory instead of failing them.
        "git_sha": current_git_sha(),
        "cpu_count": os.cpu_count(),
        "python_version": platform.python_version(),
        "platform": platform.platform(),
        "experiments": records,
        "total_wall_seconds": round(
            sum(record["wall_seconds"] for record in records), 4
        ),
    }
    output = args.output or datetime.now(timezone.utc).strftime(
        "BENCH_%Y%m%dT%H%M%SZ.json"
    )
    # Atomic write: a crash mid-dump must never leave a truncated bench
    # record for the compare gate to choke on (same discipline as the store).
    atomic_write_json(output, payload, indent=2)
    print(f"[bench record -> {output}]", file=sys.stderr)
    return 0


def _sweep_plan_from_args(args: argparse.Namespace) -> SweepPlan:
    """Build the plan for ``sweep run`` from ``--plan`` or the grid options."""
    # The validating wire decoder is shared with the HTTP service, so a bad
    # plan file gets the same field-naming message an HTTP 400 body would.
    from .service.wire import (
        decode_sweep_plan,
        validate_plan_capacities,
        validate_plan_mappers,
    )

    if args.plan is not None:
        grid_flags_used = (
            args.methods is not None
            or args.capacities is not None
            or args.levels is not None
            or args.seeds is not None
            or args.reuse
        )
        if grid_flags_used:
            raise ValueError(
                "--plan and the grid options (--methods/--capacities/--levels/"
                "--seeds/--reuse) are mutually exclusive: a plan file fully "
                "determines its requests"
            )
        with open(args.plan, "r", encoding="utf-8") as handle:
            try:
                plan = decode_sweep_plan(json.load(handle))
            except ValueError as error:  # WireFormatError and bad JSON text
                raise ValueError(
                    f"{args.plan} is not a valid sweep plan "
                    f"(SweepPlan.to_dict form): {error}"
                ) from error
    else:
        if args.methods is None or args.capacities is None:
            raise ValueError(
                "sweep run needs --methods and --capacities (or --plan FILE)"
            )
        methods = [name.strip() for name in args.methods.split(",") if name.strip()]
        if not methods:
            raise ValueError("--methods must name at least one mapper")
        # The decoder checks a plan file's levels and capacities; these are
        # the flags'.
        levels = args.levels if args.levels is not None else [1]
        for level in levels:
            if level < 1:
                raise RequestError(f"must be >= 1, got {level}", field="levels")
        plan = SweepPlan.from_grid(
            methods=methods,
            capacities=args.capacities,
            levels=levels,
            reuse=args.reuse,
            seeds=args.seeds if args.seeds is not None else [0],
        )
        validate_plan_capacities(plan, field="capacities")
    # Fail fast on unknown mapper names — a clean exit-2 message listing the
    # registered names beats a traceback out of the executor (or a worker
    # process) mid-run.  Applies to plan files and grid flags alike.
    validate_plan_mappers(plan)
    return plan


def _emit(text: str, output: Optional[str]) -> None:
    """Write rendered command output to stdout or ``--output FILE``."""
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"[-> {output}]", file=sys.stderr)
    else:
        print(text)


#: Schema tag of ``--stream-output`` JSONL lines (sweep run and shard).
_STREAM_LINE_SCHEMA = "repro-msfu-stream/v1"


@contextlib.contextmanager
def _stream_sink(
    path: Optional[str], line: Callable[[Any], Dict[str, Any]]
) -> Iterator[Optional[Callable[[Any], None]]]:
    """The ``--stream-output`` progress callback, or ``None`` without a path.

    Each progress event is appended to ``path`` as one JSONL line
    (``line(event)`` under the stream schema tag) and flushed the moment it
    lands, so a killed run leaves a complete record of everything it
    finished.
    """
    if not path:
        yield None
        return
    with open(path, "a", encoding="utf-8") as handle:
        yield lambda event: write_jsonl_line(
            handle, {"schema": _STREAM_LINE_SCHEMA, **line(event)}
        )


def _run_stream_line(event) -> Dict[str, Any]:
    """One ``sweep run --stream-output`` line (a ``SweepProgress``)."""
    return {
        "kind": "run",
        "done": event.done,
        "total": event.total,
        "source": event.source,
        "plan_indices": list(event.plan_indices),
        "request": event.request.to_dict(),
        "evaluation": event.evaluation.to_dict(),
    }


def _shard_stream_line(event) -> Dict[str, Any]:
    """One ``sweep shard --stream-output`` line (a ``ShardProgress``)."""
    return {
        "kind": "shard",
        "done": event.done,
        "phase": event.phase,
        "source": event.source,
        "plan_index": event.plan_index,
        "fingerprint": event.fingerprint,
        "request": event.request.to_dict(),
        "evaluation": event.evaluation.to_dict(),
    }


def run_sweep_command(args: argparse.Namespace) -> int:
    """The ``sweep`` command family: run / status / gc on the result store,
    plan-split / shard / merge for distributed execution."""
    if args.sweep_command == "plan-split":
        return _run_sweep_plan_split(args)
    if args.sweep_command == "shard":
        return _run_sweep_shard(args)
    if args.sweep_command == "merge":
        return _run_sweep_merge(args)
    store = ResultStore(args.store)

    if args.sweep_command == "status":
        # Rendered through the StoreStatus dataclass (to_dict discipline),
        # so fleet tooling asserting on --json never screen-scrapes text.
        status = store.status_record().to_dict()
        if args.json:
            print(json.dumps(status, indent=2))
        else:
            print(f"result store {status['root']} (schema v{status['schema_version']})")
            print(f"  entries:      {status['entries']}")
            print(f"  total bytes:  {status['total_bytes']}")
            print(f"  corrupt:      {status['corrupt']}")
            print(f"  stale schema: {status['stale_schema']}")
            print(f"  oldest:       {status['oldest_utc'] or '-'}")
            print(f"  newest:       {status['newest_utc'] or '-'}")
        return 0

    if args.sweep_command == "gc":
        try:
            report = store.gc(keep_days=args.keep_days, dry_run=args.dry_run)
        except ValueError as error:
            print(f"sweep gc: {error}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            verb = "would remove" if args.dry_run else "removed"
            print(
                f"sweep gc: {verb} {len(report.removed)} entries older than "
                f"{args.keep_days:g} days, kept {report.kept}"
            )
        return 0

    # sweep run
    if args.workers < 1:
        print(f"sweep run: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    try:
        plan = _sweep_plan_from_args(args)
    except (OSError, ValueError) as error:
        print(f"sweep run: {error}", file=sys.stderr)
        return 2
    executor = SweepExecutor(workers=args.workers, store=store, batch=args.batch)
    started = time.time()
    try:
        with _stream_sink(args.stream_output, _run_stream_line) as progress:
            result = executor.run(plan, resume=args.resume, progress=progress)
    except RequestError as error:
        print(f"sweep run: {error}", file=sys.stderr)
        return 2
    elapsed = time.time() - started
    stats = result.stats
    print(
        f"[sweep run: {stats.requests} requests -> {stats.evaluations} evaluated, "
        f"{stats.store_hits} from store, {stats.duplicate_hits} duplicates "
        f"in {elapsed:.1f}s]",
        file=sys.stderr,
    )
    if args.json:
        payload = {
            "schema": "repro-msfu-sweep/v1",
            "store": str(store.root),
            "resumed": bool(args.resume),
            "stats": stats.to_dict(),
            "evaluations": [evaluation.to_dict() for evaluation in result.evaluations],
        }
        _emit(json.dumps(payload, indent=2), args.output)
        return 0
    lines = [
        f"{'method':<18} {'capacity':>8} {'levels':>6} {'reuse':>5} {'seed':>4} "
        f"{'latency':>8} {'area':>6} {'volume':>10}"
    ]
    for request, evaluation in zip(plan, result.evaluations):
        lines.append(
            f"{evaluation.method:<18} {evaluation.capacity:>8} "
            f"{evaluation.levels:>6} {str(evaluation.reuse):>5} {request.seed:>4} "
            f"{evaluation.latency:>8} {evaluation.area:>6} {evaluation.volume:>10}"
        )
    _emit("\n".join(lines), args.output)
    return 0


def _run_sweep_plan_split(args: argparse.Namespace) -> int:
    """``sweep plan-split``: write one self-contained shard file per piece."""
    if args.shards < 1:
        print(
            f"sweep plan-split: --shards must be >= 1, got {args.shards}",
            file=sys.stderr,
        )
        return 2
    try:
        plan = _sweep_plan_from_args(args)
    except (OSError, ValueError) as error:
        print(f"sweep plan-split: {error}", file=sys.stderr)
        return 2
    if args.shards > len(plan):
        print(
            f"sweep plan-split: --shards {args.shards} exceeds the plan's "
            f"{len(plan)} requests (empty shards would do nothing)",
            file=sys.stderr,
        )
        return 2
    paths = write_shard_files(
        plan, args.shards, args.out_dir, strategy=args.strategy
    )
    fingerprint = plan_fingerprint(plan)
    if args.json:
        print(
            json.dumps(
                {
                    "schema": "repro-msfu-plan-split/v1",
                    "plan_fingerprint": fingerprint,
                    "entries": len(plan),
                    "shards": args.shards,
                    "strategy": args.strategy,
                    "files": [str(path) for path in paths],
                },
                indent=2,
            )
        )
    else:
        print(
            f"sweep plan-split: {len(plan)} requests -> {args.shards} "
            f"{args.strategy} shards (plan {fingerprint[:12]})"
        )
        for path in paths:
            print(f"  {path}")
    return 0


def _run_sweep_shard(args: argparse.Namespace) -> int:
    """``sweep shard``: execute one shard of a plan against its store."""
    from .service.wire import validate_plan_capacities, validate_plan_mappers

    if args.workers < 1:
        print(
            f"sweep shard: --workers must be >= 1, got {args.workers}",
            file=sys.stderr,
        )
        return 2
    try:
        if args.spec is not None:
            if args.shard_index is not None or args.shard_count is not None:
                raise ValueError(
                    "--spec and --shard-index/--shard-count are mutually "
                    "exclusive: the shard file fully determines the shard"
                )
            plan, spec = load_shard_file(args.spec)
            validate_plan_mappers(plan)
            validate_plan_capacities(plan)
        else:
            if args.shard_index is None or args.shard_count is None:
                raise ValueError(
                    "needs --spec FILE, or a plan source (--plan / grid "
                    "options) with --shard-index and --shard-count"
                )
            plan = _sweep_plan_from_args(args)
            spec = ShardSpec(
                index=args.shard_index,
                count=args.shard_count,
                strategy=args.strategy,
            )
        if not spec.plan_indices(len(plan)):
            raise ValueError(
                f"shard {spec.index}/{spec.count} of this "
                f"{len(plan)}-request plan is empty"
            )
    except (OSError, ValueError) as error:
        print(f"sweep shard: {error}", file=sys.stderr)
        return 2

    store = ResultStore(args.store)
    started = time.time()
    try:
        with _stream_sink(args.stream_output, _shard_stream_line) as progress:
            result = run_shard(
                plan,
                spec,
                store,
                claim_dir=args.claim_dir,
                workers=args.workers,
                batch=args.batch,
                steal=not args.no_steal,
                progress=progress,
            )
    except RequestError as error:
        print(f"sweep shard: {error}", file=sys.stderr)
        return 2
    elapsed = time.time() - started
    stats = result.stats
    print(
        f"[sweep shard {spec.index}/{spec.count} ({spec.strategy}): "
        f"{len(result.own)} own, {len(result.yielded)} yielded, "
        f"{len(result.stolen)} stolen -> {stats.evaluations} evaluated, "
        f"{stats.store_hits} from store in {elapsed:.1f}s]",
        file=sys.stderr,
    )
    if args.json:
        payload = {"schema": "repro-msfu-shard-run/v1", **result.to_dict()}
        _emit(json.dumps(payload, indent=2), args.output)
        return 0
    lines = [
        f"shard {spec.index}/{spec.count} ({spec.strategy}) of plan "
        f"{result.plan_fingerprint[:12]} -> store {store.root}",
        f"  shard id:   {result.shard_id}",
        f"  own points: {len(result.own)}"
        + (f" (yielded {len(result.yielded)})" if result.yielded else ""),
        f"  stolen:     {len(result.stolen)}",
        f"  evaluated:  {stats.evaluations} ({stats.store_hits} from store)",
    ]
    _emit("\n".join(lines), args.output)
    return 0


def _run_sweep_merge(args: argparse.Namespace) -> int:
    """``sweep merge``: union source stores into ``--into``."""
    store = ResultStore(args.into)
    try:
        report = store.merge(args.sources, prefer_newest=args.prefer_newest)
    except MergeConflictError as error:
        print(f"sweep merge: {error}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as error:
        print(f"sweep merge: {error}", file=sys.stderr)
        return 2
    if args.json:
        payload = {"schema": "repro-msfu-merge-report/v1", **report.to_dict()}
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"sweep merge -> {report.into}: {report.merged} merged, "
        f"{report.identical} identical, {report.conflicts} conflicts"
        + (" (resolved newest)" if args.prefer_newest else "")
    )
    for source in report.sources:
        extras = []
        if source.stale_schema:
            extras.append(f"{source.stale_schema} stale-schema")
        if source.bad_entries:
            extras.append(f"{source.bad_entries} corrupt")
        if source.preferred:
            extras.append(f"{source.preferred} preferred")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        print(
            f"  {source.root}: {source.scanned} scanned, "
            f"{source.merged} merged, {source.identical} identical{suffix}"
        )
    return 0


def run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` command: run the sweep service until interrupted."""
    if args.workers < 1:
        print(f"serve: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    # Imported lazily: the service layer is not needed by any other command.
    import signal

    from .service.server import serve as build_service

    service, server = build_service(
        store=args.store, host=args.host, port=args.port, workers=args.workers
    )
    host, port = server.server_address[:2]
    recovered = service.jobs.jobs_in_flight()
    print(
        f"[serve: http://{host}:{port} store={args.store} "
        f"workers={args.workers}"
        + (f", resuming {recovered} unfinished job(s)" if recovered else "")
        + "]",
        file=sys.stderr,
    )

    # Graceful shutdown on SIGTERM too: Ctrl-C never reaches a process
    # backgrounded by a non-interactive shell (CI runs `serve &` and later
    # `kill`s it), so plain termination must also close the job queue and
    # flush state, not die mid-write.
    def _sigterm(signum, frame):  # pragma: no cover - signal plumbing
        raise KeyboardInterrupt

    previous_sigterm = signal.signal(signal.SIGTERM, _sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("[serve: shutting down]", file=sys.stderr)
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
        server.server_close()
        service.close()
    return 0


def _experiment_kwargs(
    spec: ExperimentSpec, args: argparse.Namespace
) -> Dict[str, Any]:
    """Collect the declared parameters the user actually set."""
    kwargs: Dict[str, Any] = {}
    for param in spec.params:
        value = getattr(args, param.name, None)
        if value is not None:
            kwargs[param.name] = value
    return kwargs


def _render(
    name: str, result: Any, spec: ExperimentSpec, as_json: bool, elapsed: float
) -> str:
    if not as_json:
        return spec.format(result)
    payload = {
        "experiment": name,
        "elapsed_seconds": round(elapsed, 3),
        "result": result.to_dict() if hasattr(result, "to_dict") else result,
    }
    return json.dumps(payload, indent=2)


def _normalize_run_argv(argv: Sequence[str]) -> List[str]:
    """Hoist the experiment name directly after ``run``.

    The old flat parser accepted ``run --seed 1 fig6``; subparsers require
    the experiment name first.  If the token after ``run`` is an option,
    move the first token naming a registered experiment up front so both
    orderings keep working.
    """
    tokens = list(argv)
    try:
        run_index = tokens.index("run")
    except ValueError:
        return tokens
    rest = tokens[run_index + 1 :]
    if not rest or not rest[0].startswith("-"):
        return tokens
    known = set(available_experiments())
    for index, token in enumerate(rest):
        if token in known:
            rest.pop(index)
            return tokens[: run_index + 1] + [token] + rest
    return tokens


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-msfu`` console script."""
    parser = build_parser()
    args = parser.parse_args(
        _normalize_run_argv(argv if argv is not None else sys.argv[1:])
    )

    if args.command == "list":
        names = sorted(available_experiments())
        if args.json:
            listing = [
                {"name": name, "description": get_experiment(name).description}
                for name in names
            ]
            print(json.dumps(listing, indent=2))
        else:
            print("Available experiments:")
            for name in names:
                description = get_experiment(name).description
                suffix = f"  — {description}" if description else ""
                print(f"  {name}{suffix}")
        return 0

    if args.command == "bench":
        return run_bench(args)

    if args.command == "sweep":
        return run_sweep_command(args)

    if args.command == "serve":
        return run_serve(args)

    if args.command == "lint":
        from .lint.cli import run_lint

        return run_lint(args)

    spec = get_experiment(args.experiment)
    kwargs = _experiment_kwargs(spec, args)

    started = time.time()
    try:
        result = spec.run(**kwargs)
    except RequestError as error:
        print(f"run {args.experiment}: {error}", file=sys.stderr)
        return 2
    elapsed = time.time() - started
    rendered = _render(args.experiment, result, spec, args.json, elapsed)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(
            f"[{args.experiment} completed in {elapsed:.1f}s -> {args.output}]",
            file=sys.stderr,
        )
        return 0

    print(rendered)
    if not args.json:
        # Keep stdout machine-readable under --json: the trailer would break
        # `repro-msfu run ... --json | python -m json.tool` style pipelines.
        print(f"\n[{args.experiment} completed in {elapsed:.1f}s]")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
