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
import json
import os
import platform
import sys
import time
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .api.benchcompare import (
    BenchRecordError,
    compare_bench_records,
    load_bench_record,
)
from .api.executor import (
    ExecutorStats,
    SweepExecutor,
    SweepPlan,
    SweepRunResult,
    take_last_run_stats,
)
from .api.experiments import (
    ExperimentSpec,
    available_experiments,
    get_experiment,
    parse_int_list,
)
from .api.pipeline import default_pipeline
from .api.sharding import (
    SHARD_STRATEGIES,
    ShardSpec,
    load_shard_file,
    plan_fingerprint,
    run_shard,
    shard_specs,
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
        help=(
            "comma-separated experiment names to benchmark "
            f"(default: {','.join(DEFAULT_BENCH_EXPERIMENTS)})"
        ),
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
        "--batch",
        action="store_true",
        help=(
            "run sweep experiments through the batched simulator core "
            "(identical results; timing reflects the batched path)"
        ),
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


#: Experiments benchmarked by ``repro-msfu bench`` when none are named: the
#: Fig. 7 scaling sweeps (the canonical parallel-execution workload), the
#: single-level Table I block (a mapper-diverse, simulation-heavy sweep),
#: the force-directed mapper case (crossing counting + full exact-cost FD
#: refinement on a factory-scale graph), the congestion-stress simulator
#: case (bitmask/wakeup engine vs the set-based reference engine) and the
#: batched-simulator case (one ``simulate_batch`` call over a sweep-shaped
#: point set vs the per-point engine loop).
DEFAULT_BENCH_EXPERIMENTS = (
    "fig7a",
    "fig7b",
    "table1-level1",
    "fd-mapper",
    "fd-kernel",
    "sim-congestion",
    "sim-batch",
    "sweep-shard",
)

#: Name of the special bench-only case handled by :func:`_bench_fd_mapper`
#: (not a registered experiment: it times mapping-layer internals, not a
#: paper artifact).
FD_MAPPER_BENCH = "fd-mapper"

#: Name of the special bench-only case handled by :func:`_bench_fd_kernel`
#: (times the compiled/vector/scalar tracker engines head to head on one
#: deterministic move sequence, asserting byte-identical state).
FD_KERNEL_BENCH = "fd-kernel"

#: Name of the special bench-only case handled by
#: :func:`_bench_sim_congestion` (times routing-layer internals: the default
#: simulation engine against the retained reference engine).
SIM_CONGESTION_BENCH = "sim-congestion"

#: Name of the special bench-only case handled by :func:`_bench_sim_batch`
#: (times the batched simulator core against the per-point engine loop on
#: a sweep-shaped same-circuit point set).
SIM_BATCH_BENCH = "sim-batch"

#: Name of the special bench-only case handled by
#: :func:`_bench_sweep_shard` (a k-shard simulated fleet over private
#: stores, merged and checked byte-identical against one single-store run).
SWEEP_SHARD_BENCH = "sweep-shard"

#: Reduced ``--smoke`` parameter overrides per experiment, chosen so every
#: entry completes in seconds.  Unknown experiments with a ``capacities``
#: parameter fall back to ``[2, 4]``.
SMOKE_OVERRIDES: Dict[str, Dict[str, Any]] = {
    "fig7a": {"capacities": [2, 4]},
    "fig7b": {"capacities": [4]},
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
        overrides = SMOKE_OVERRIDES.get(spec.name)
        if overrides is None and "capacities" in param_names:
            overrides = {"capacities": [2, 4]}
        for key, value in (overrides or {}).items():
            if key in param_names:
                kwargs[key] = value
    if args.seed is not None and "seed" in param_names:
        kwargs["seed"] = args.seed
    if args.workers != 1 and "workers" in param_names:
        kwargs["workers"] = args.workers
    if getattr(args, "batch", False) and "batch" in param_names:
        kwargs["batch"] = True
    return kwargs


def _bench_fd_mapper(args: argparse.Namespace) -> Dict[str, Any]:
    """Benchmark the exact-metrics engine and a full FD refinement.

    Times the bucketed crossing counter against the brute-force
    ``_reference`` oracle (asserting equal counts), then a complete
    :func:`~repro.mapping.force_directed.force_directed_refine` run with
    per-move exact incremental cost, on the L2 K=16 factory graph (the
    paper's headline two-level configuration; L1 K=4 under ``--smoke``).

    The record also estimates two brute-force baselines from a measured
    exact-cost evaluation (best of three): *per-move* — what driving every
    proposed move with a brute-force exact evaluation would cost, i.e. the
    only pre-existing way to compute the objective the incremental tracker
    now provides per move — and *per-sweep* — what the pre-existing exact
    path actually did for graphs under its 600-edge cutoff (one exact
    evaluation per sweep; above the cutoff it optimized a cheap surrogate
    instead, which is the bug this engine fixes, so its wall time is not a
    like-for-like baseline).
    """
    from .graphs import interaction_graph
    from .graphs.metrics import (
        average_edge_length,
        average_edge_spacing_reference,
        combine_metric_cost,
        count_edge_crossings,
        count_edge_crossings_reference,
    )
    from .mapping import linear_factory_placement
    from .mapping.force_directed import (
        ForceDirectedConfig,
        force_directed_refine,
        take_refine_stats,
    )

    capacity, levels = (4, 1) if args.smoke else (16, 2)
    started = time.perf_counter()
    factory = default_pipeline().factory(capacity, levels)
    graph = interaction_graph(factory.circuit)
    initial = linear_factory_placement(factory)
    positions = initial.as_float_positions()

    tick = time.perf_counter()
    bucketed = count_edge_crossings(graph, positions)
    crossing_seconds = time.perf_counter() - tick
    tick = time.perf_counter()
    reference = count_edge_crossings_reference(graph, positions)
    crossing_reference_seconds = time.perf_counter() - tick
    if bucketed != reference:
        raise AssertionError(
            f"bucketed crossing count {bucketed} != brute force {reference}"
        )

    # One full brute-force evaluation of the exact combined cost (best of
    # three, to damp single-sample timing noise).
    config = ForceDirectedConfig(seed=args.seed if args.seed is not None else 0)
    brute_eval_seconds = float("inf")
    for _ in range(3):
        tick = time.perf_counter()
        combine_metric_cost(
            count_edge_crossings_reference(graph, positions),
            average_edge_length(graph, positions),
            average_edge_spacing_reference(graph, positions),
            crossing_weight=config.cost_crossing_weight,
        )
        brute_eval_seconds = min(brute_eval_seconds, time.perf_counter() - tick)

    take_refine_stats()  # drop stats of unrelated earlier runs
    tick = time.perf_counter()
    force_directed_refine(graph, initial, config)
    refine_seconds = time.perf_counter() - tick
    refine_stats = take_refine_stats()[-1]

    per_move_brute_seconds = refine_stats.proposed_moves * brute_eval_seconds
    per_sweep_brute_seconds = refine_stats.sweeps * brute_eval_seconds
    return {
        "experiment": FD_MAPPER_BENCH,
        "params": {"capacity": capacity, "levels": levels, "seed": config.seed},
        "workers": 1,
        "wall_seconds": round(time.perf_counter() - started, 4),
        "sim_cycles": None,
        "stall_cycles": None,
        "evaluations": None,
        "fd": {
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "edge_crossings": bucketed,
            "crossing_seconds": round(crossing_seconds, 4),
            "crossing_reference_seconds": round(crossing_reference_seconds, 4),
            "crossing_speedup": round(
                crossing_reference_seconds / crossing_seconds, 2
            )
            if crossing_seconds > 0
            else None,
            "refine_seconds": round(refine_seconds, 4),
            "sweeps": refine_stats.sweeps,
            "proposed_moves": refine_stats.proposed_moves,
            "accepted_moves": refine_stats.accepted_moves,
            "initial_cost": round(refine_stats.initial_cost, 2),
            "best_cost": round(refine_stats.best_cost, 2),
            "brute_force_cost_eval_seconds": round(brute_eval_seconds, 4),
            # Hypothetical: per-move exact acceptance via brute-force
            # recompute (what the incremental tracker replaces).  No prior
            # release ran this loop — large graphs used a length surrogate.
            "estimated_per_move_brute_force_seconds": round(
                per_move_brute_seconds, 1
            ),
            "refine_speedup_vs_per_move_brute_force": round(
                per_move_brute_seconds / refine_seconds, 1
            )
            if refine_seconds > 0
            else None,
            # What the pre-existing exact path did for <=600-edge graphs,
            # extrapolated to this size: one brute-force evaluation per
            # sweep (per-move acceptance still used the cheap surrogate).
            "estimated_per_sweep_brute_force_seconds": round(
                per_sweep_brute_seconds, 1
            ),
        },
    }


def _bench_fd_kernel(args: argparse.Namespace) -> Dict[str, Any]:
    """Benchmark the tracker engines head to head on one move sequence.

    Builds one :class:`~repro.graphs.metrics.MappingCostTracker` per
    available engine (``scalar`` reference, ``vector``, ``compiled``) on
    the L2 K=16 factory graph (L1 K=4 under ``--smoke``) and drives each
    through the *same* deterministic sequence of annealer-shaped
    operations — single-move applies, apply+revert pairs, and batches
    of pure ``evaluate`` proposals.  Full tracker state (crossings, lengths,
    spacing sum, combined cost, positions) is asserted byte-identical
    across engines at the end; the record carries per-engine wall time
    and the speedup of each engine over the scalar reference.
    """
    import random as _random

    from .graphs import interaction_graph
    from .graphs.metrics import MappingCostTracker, tracker_engines
    from .mapping import linear_factory_placement

    capacity, levels = (4, 1) if args.smoke else (16, 2)
    # The scalar reference costs ~10ms per evaluation at L2 K=16; the
    # sequence length is chosen so the slowest engine stays under ~10s
    # while every engine still accumulates a timing well above jitter.
    moves = 300 if args.smoke else 400
    seed = args.seed if args.seed is not None else 0
    started = time.perf_counter()
    factory = default_pipeline().factory(capacity, levels)
    graph = interaction_graph(factory.circuit)
    positions = linear_factory_placement(factory).as_float_positions()

    # Pre-generate the operation sequence once so every engine replays the
    # identical workload (roughly annealer-shaped: mostly kept moves, some
    # rejected ones, occasional runs of evaluated-only proposals).
    rng = _random.Random(seed)
    vertices = sorted(graph.nodes(), key=str)
    max_row = max(row for row, _ in positions.values()) + 1.0
    max_col = max(col for _, col in positions.values()) + 1.0

    def _updates() -> Dict[Any, Tuple[float, float]]:
        chosen = rng.sample(vertices, rng.randint(1, 2))
        return {
            vertex: (
                float(rng.randrange(int(max_row))),
                float(rng.randrange(int(max_col))),
            )
            for vertex in chosen
        }

    ops = []
    for _ in range(moves):
        roll = rng.random()
        if roll < 0.7:
            ops.append(("apply", _updates()))
        elif roll < 0.9:
            ops.append(("revert", _updates()))
        else:
            ops.append(("batch", [_updates() for _ in range(8)]))

    timings: Dict[str, float] = {}
    states: Dict[str, Any] = {}
    for engine in tracker_engines():
        tick = time.perf_counter()
        tracker = MappingCostTracker(graph, dict(positions), engine=engine)
        for op, payload in ops:
            if op == "apply":
                tracker.apply(payload)
            elif op == "revert":
                tracker.apply(payload)
                tracker.revert_last()
            else:
                for updates in payload:
                    tracker.evaluate(updates)
        timings[engine] = time.perf_counter() - tick
        states[engine] = (
            tracker.crossings,
            tracker.total_edge_length,
            tracker.total_weighted_length,
            tracker.spacing_sum,
            tracker.cost(),
            dict(tracker._positions),
        )

    expected = states["scalar"]
    for engine, state in states.items():
        if state != expected:
            raise AssertionError(
                f"tracker engine {engine!r} diverged from the scalar "
                f"reference on the fd-kernel bench sequence"
            )

    scalar_seconds = timings["scalar"]
    engines = {
        engine: {
            "seconds": round(seconds, 4),
            "speedup_vs_scalar": round(scalar_seconds / seconds, 2)
            if seconds > 0
            else None,
        }
        for engine, seconds in timings.items()
    }
    return {
        "experiment": FD_KERNEL_BENCH,
        "params": {
            "capacity": capacity,
            "levels": levels,
            "seed": seed,
            "moves": moves,
        },
        "workers": 1,
        "wall_seconds": round(time.perf_counter() - started, 4),
        "sim_cycles": None,
        "stall_cycles": None,
        "evaluations": None,
        "fd": {
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "operations": len(ops),
            "engines": engines,
            "state_identical": True,  # asserted above; recorded for compare
        },
    }


def _bench_sim_congestion(args: argparse.Namespace) -> Dict[str, Any]:
    """Benchmark the bitmask/wakeup simulation engine under congestion.

    The scenario is a factory-scale mesh at high braid pressure (Section
    VIII-A stall semantics): the two-level K=16 factory circuit under a
    *random* placement — the congested geometry of the Fig. 6 study, where
    braid corridors cross constantly — swept over ``max_candidates``, plus a
    denser schedule that stitches rounds of random permutation braids (the
    inter-round traffic the paper blames for the Fig. 7b gap) onto the same
    mapping.  Under ``--smoke`` the single-level K=4 factory is used.

    Each configuration is simulated with the default bitmask/wakeup engine
    and with :func:`~repro.routing.simulator.simulate_reference` (wakeup
    tracking disabled, so the oracle's cost profile is the pre-wakeup
    engine's).  Results must agree field-for-field (``wakeups`` aside, which
    the untracked oracle does not compute; the tier-1 parity suite pins it);
    wall times are best-of-``repeats`` to damp single-sample noise.  The
    headline ``speedup`` is total reference time over total engine time.
    """
    import random as random_module

    from .routing import SimulatorConfig, simulate, simulate_reference
    from .circuits.gates import cnot
    from .mapping import random_circuit_placement

    capacity, levels = (4, 1) if args.smoke else (16, 2)
    seed = args.seed if args.seed is not None else 0
    repeats = 1 if args.smoke else 3
    started = time.perf_counter()
    factory = default_pipeline().factory(capacity, levels)
    placement = random_circuit_placement(factory.circuit, seed=seed)

    # The denser stitched schedule: the factory rounds followed by rounds of
    # random permutation braids over every placed qubit.
    rng = random_module.Random(seed + 1)
    placed = sorted(placement.positions)
    permutation_gates = []
    for _ in range(2):
        rng.shuffle(placed)
        permutation_gates.extend(
            cnot(placed[i], placed[i + 1]) for i in range(0, len(placed) - 1, 2)
        )
    factory_gates = list(factory.circuit.gates)
    stitched_gates = factory_gates + permutation_gates

    cases = [
        ("factory", factory_gates, mc)
        for mc in ((2,) if args.smoke else (2, 4, 8))
    ]
    if not args.smoke:
        cases.append(("stitched-permutations", stitched_gates, 4))

    def best_of(func):
        best, result = float("inf"), None
        for _ in range(repeats):
            tick = time.perf_counter()
            result = func()
            best = min(best, time.perf_counter() - tick)
        return best, result

    records = []
    mask_total = 0.0
    reference_total = 0.0
    for name, gates, max_candidates in cases:
        config = SimulatorConfig(max_candidates=max_candidates)
        mask_seconds, mask_result = best_of(
            lambda: simulate(gates, placement, config)
        )
        reference_seconds, reference_result = best_of(
            lambda: simulate_reference(
                gates, placement, config, track_wakeups=False
            )
        )
        mask_dict = mask_result.to_dict()
        reference_dict = reference_result.to_dict()
        # The untracked oracle reports wakeups=0 by construction; everything
        # else must match byte for byte.
        mask_wakeups = mask_dict.pop("wakeups")
        reference_dict.pop("wakeups")
        if mask_dict != reference_dict:
            raise AssertionError(
                f"sim-congestion: engines diverged on case {name} "
                f"(max_candidates={max_candidates})"
            )
        mask_total += mask_seconds
        reference_total += reference_seconds
        records.append(
            {
                "case": name,
                "max_candidates": max_candidates,
                "gates": len(gates),
                "mask_seconds": round(mask_seconds, 4),
                "reference_seconds": round(reference_seconds, 4),
                "speedup": round(reference_seconds / mask_seconds, 2)
                if mask_seconds > 0
                else None,
                "latency": mask_result.latency,
                "stall_cycles": mask_result.stall_cycles,
                "stall_events": mask_result.stall_events,
                "distinct_stalls": mask_result.distinct_stalls,
                "wakeups": mask_wakeups,
            }
        )

    return {
        "experiment": SIM_CONGESTION_BENCH,
        "params": {
            "capacity": capacity,
            "levels": levels,
            "seed": seed,
            "repeats": repeats,
        },
        "workers": 1,
        "wall_seconds": round(time.perf_counter() - started, 4),
        "sim_cycles": None,
        "stall_cycles": None,
        "evaluations": None,
        "sim": {
            "placement": "random (congested)",
            "grid": [placement.height, placement.width],
            "cases": records,
            "mask_total_seconds": round(mask_total, 4),
            "reference_total_seconds": round(reference_total, 4),
            "speedup": round(reference_total / mask_total, 2)
            if mask_total > 0
            else None,
        },
    }


def _bench_sim_batch(args: argparse.Namespace) -> Dict[str, Any]:
    """Benchmark the batched simulator core against the per-point loop.

    The scenario is the batched engine's target shape — a capacity sweep's
    cache-miss batch: one circuit (the two-level K=16 factory; single-level
    K=4 under ``--smoke``) swept over several random placements crossed
    with a ``max_candidates`` range.  The whole point set is simulated once
    as a per-point loop over the default bitmask/wakeup engine (the
    ``sim-congestion`` baseline, one :func:`~repro.routing.simulate` call
    per point) and once as a single
    :func:`~repro.routing.batchsim.simulate_batch` call; every point must
    agree field-for-field on ``to_dict()``.  Wall times are
    best-of-``repeats``; the headline ``speedup`` is the loop total over
    the batched total.  The record names the batched engine actually used
    (``compiled``, or ``loop`` when the kernel cannot be built) so
    cross-machine records stay interpretable.
    """
    from .mapping import random_circuit_placement
    from .routing import SimulatorConfig, simulate
    from .routing.batchsim import kernel_available, simulate_batch
    from .routing.simulator import _gate_list

    capacity, levels = (4, 1) if args.smoke else (16, 2)
    num_placements = 2 if args.smoke else 8
    candidate_sweep = (2,) if args.smoke else (1, 2, 3, 4, 6, 8)
    seed = args.seed if args.seed is not None else 0
    repeats = 1 if args.smoke else 3
    started = time.perf_counter()
    factory = default_pipeline().factory(capacity, levels)
    gates = _gate_list(factory.circuit)
    placements = [
        random_circuit_placement(factory.circuit, seed=seed + index)
        for index in range(num_placements)
    ]
    configs = [SimulatorConfig(max_candidates=mc) for mc in candidate_sweep]
    points = [
        (gates, placement, config)
        for placement in placements
        for config in configs
    ]

    def best_of(func):
        best, result = float("inf"), None
        for _ in range(repeats):
            tick = time.perf_counter()
            result = func()
            best = min(best, time.perf_counter() - tick)
        return best, result

    loop_seconds, loop_results = best_of(
        lambda: [simulate(g, p, c) for g, p, c in points]
    )
    batch_seconds, batch_results = best_of(lambda: simulate_batch(points))
    mismatched = sum(
        1
        for loop_result, batch_result in zip(loop_results, batch_results)
        if loop_result.to_dict() != batch_result.to_dict()
    )
    if mismatched:
        raise AssertionError(
            f"sim-batch: batched engine diverged from the per-point engine "
            f"on {mismatched} of {len(points)} points"
        )
    engine = "compiled" if kernel_available() else "loop"
    return {
        "experiment": SIM_BATCH_BENCH,
        "params": {
            "capacity": capacity,
            "levels": levels,
            "seed": seed,
            "repeats": repeats,
            "placements": num_placements,
            "candidate_sweep": list(candidate_sweep),
        },
        "workers": 1,
        "wall_seconds": round(time.perf_counter() - started, 4),
        "sim_cycles": None,
        "stall_cycles": None,
        "evaluations": None,
        "sim": {
            "engine": engine,
            "points": len(points),
            "gates": len(gates),
            "loop_total_seconds": round(loop_seconds, 4),
            "batch_total_seconds": round(batch_seconds, 4),
            "speedup": round(loop_seconds / batch_seconds, 2)
            if batch_seconds > 0
            else None,
        },
    }


def _bench_sweep_shard(args: argparse.Namespace) -> Dict[str, Any]:
    """Benchmark a k-shard simulated fleet against one single-store sweep.

    The scenario is the distributed layer's target shape — a congested
    fig7-style capacity sweep partitioned over three strided shards, each
    running :func:`~repro.api.sharding.run_shard` against a private store,
    then joined with :meth:`~repro.api.store.ResultStore.merge`.  The
    fleet is *simulated* (shards run back to back in this process), so
    the headline ``fleet_wall_seconds`` is the max of the per-shard walls
    — what a real 3-machine fleet would wait — while ``wall_seconds``
    keeps the actual serial cost of the whole bench entry.  The merged
    store must answer a full resumed run with zero evaluations and
    byte-identical output to the single-store run; the bench fails hard
    otherwise, so every perf record doubles as an invariant check.
    """
    import shutil
    import tempfile

    shards = 3
    strategy = "strided"
    methods = ["linear", "force_directed"]
    capacities = [2, 4] if args.smoke else [2, 3, 4, 6]
    seed = args.seed if args.seed is not None else 0
    plan = SweepPlan.from_grid(
        methods=methods, capacities=capacities, levels=[1], seeds=[seed]
    )
    started = time.perf_counter()
    root = tempfile.mkdtemp(prefix="repro-bench-shard-")
    try:
        single_store = ResultStore(os.path.join(root, "single"))
        tick = time.perf_counter()
        single = SweepExecutor(workers=1, store=single_store).run(plan)
        single_seconds = time.perf_counter() - tick

        shard_stores: List[ResultStore] = []
        shard_walls: List[float] = []
        for spec in shard_specs(shards, strategy):
            shard_store = ResultStore(os.path.join(root, f"shard-{spec.index}"))
            shard_stores.append(shard_store)
            tick = time.perf_counter()
            outcome = run_shard(plan, spec, shard_store)
            shard_walls.append(time.perf_counter() - tick)
            if outcome.yielded or outcome.stolen:
                raise AssertionError(
                    f"sweep-shard: claimless shard {spec.index} must neither "
                    f"yield nor steal, got {outcome.to_dict()}"
                )

        merged = ResultStore(os.path.join(root, "merged"))
        report = merged.merge([shard_store.root for shard_store in shard_stores])
        if report.conflicts:
            raise AssertionError(
                f"sweep-shard: disjoint shards produced {report.conflicts} "
                f"merge conflicts"
            )
        resumed = SweepExecutor(workers=1, store=merged).run(plan, resume=True)
        if resumed.stats.evaluations != 0:
            raise AssertionError(
                f"sweep-shard: the merged store answered a resumed run with "
                f"{resumed.stats.evaluations} fresh evaluations, expected 0"
            )
        if json.dumps(resumed.to_dict(), sort_keys=True) != json.dumps(
            single.to_dict(), sort_keys=True
        ):
            raise AssertionError(
                "sweep-shard: merged-store output is not byte-identical to "
                "the single-store run"
            )
    finally:
        shutil.rmtree(root, ignore_errors=True)

    fleet_wall = max(shard_walls)
    return {
        "experiment": SWEEP_SHARD_BENCH,
        "params": {
            "shards": shards,
            "strategy": strategy,
            "methods": methods,
            "capacities": capacities,
            "seed": seed,
        },
        "workers": 1,
        "wall_seconds": round(time.perf_counter() - started, 4),
        "sim_cycles": sum(e.latency for e in single.evaluations),
        "stall_cycles": sum(e.stall_cycles for e in single.evaluations),
        "evaluations": len(single.evaluations),
        "shard": {
            "shards": shards,
            "strategy": strategy,
            "plan_points": len(plan),
            "merged_entries": report.merged,
            "single_seconds": round(single_seconds, 4),
            "fleet_wall_seconds": round(fleet_wall, 4),
            "fleet_total_seconds": round(sum(shard_walls), 4),
            "fleet_speedup": (
                round(single_seconds / fleet_wall, 2) if fleet_wall > 0 else None
            ),
            "identical": True,
        },
    }


def _bench_one(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Benchmark one experiment and return its JSON-safe record."""
    spec = get_experiment(name)
    kwargs = _bench_kwargs(spec, args)
    pipeline = default_pipeline()
    before = pipeline.stats.snapshot()
    take_last_run_stats()  # discard stats of any earlier, unrelated run
    started = time.perf_counter()
    result = spec.run(**kwargs)
    wall_seconds = time.perf_counter() - started

    record: Dict[str, Any] = {
        "experiment": name,
        "params": {key: value for key, value in kwargs.items()},
        "workers": kwargs.get("workers", 1),
        "wall_seconds": round(wall_seconds, 4),
        "sim_cycles": None,
        "stall_cycles": None,
        "evaluations": None,
    }
    evaluations = getattr(result, "evaluations", None)
    if evaluations:
        record["evaluations"] = len(evaluations)
        record["sim_cycles"] = sum(e.latency for e in evaluations)
        record["stall_cycles"] = sum(e.stall_cycles for e in evaluations)

    executor_stats = take_last_run_stats()
    if executor_stats is not None:
        # The sweep ran through a SweepExecutor (workers > 1): report its
        # exact per-run accounting, aggregated across worker processes.
        record["cache"] = executor_stats.to_dict()
    else:
        delta = pipeline.stats.delta(before)
        record["cache"] = {
            "evaluations": delta.evaluations,
            "factory_builds": delta.factory_builds,
            "factory_cache_hits": delta.cache_hits,
            "sim_cache_hits": delta.sim_cache_hits,
            "store_hits": delta.store_hits,
            "fd_sweeps": delta.fd_sweeps,
            "fd_moves_accepted": delta.fd_moves_accepted,
            "sim_stall_events": delta.sim_stall_events,
            "sim_distinct_stalls": delta.sim_distinct_stalls,
            "sim_wakeups": delta.sim_wakeups,
            "build_seconds": round(delta.build_seconds, 4),
            "map_seconds": round(delta.map_seconds, 4),
            "sim_seconds": round(delta.sim_seconds, 4),
            "workers": 1,
        }
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
            ("--batch", args.batch),
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
    experiments = (
        args.experiments
        if args.experiments is not None
        else ",".join(DEFAULT_BENCH_EXPERIMENTS)
    )
    names = [name.strip() for name in experiments.split(",") if name.strip()]
    if args.workers < 1:
        print(f"bench: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    known = set(available_experiments()) | {
        FD_MAPPER_BENCH,
        FD_KERNEL_BENCH,
        SIM_CONGESTION_BENCH,
        SIM_BATCH_BENCH,
        SWEEP_SHARD_BENCH,
    }
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
        if name == FD_MAPPER_BENCH:
            record = _bench_fd_mapper(args)
        elif name == FD_KERNEL_BENCH:
            record = _bench_fd_kernel(args)
        elif name == SIM_CONGESTION_BENCH:
            record = _bench_sim_congestion(args)
        elif name == SIM_BATCH_BENCH:
            record = _bench_sim_batch(args)
        elif name == SWEEP_SHARD_BENCH:
            record = _bench_sweep_shard(args)
        else:
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
        "python": platform.python_version(),  # legacy key, kept for old tooling
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
    from .service.wire import decode_sweep_plan, validate_plan_mappers

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
        plan = SweepPlan.from_grid(
            methods=methods,
            capacities=args.capacities,
            levels=args.levels if args.levels is not None else [1],
            reuse=args.reuse,
            seeds=args.seeds if args.seeds is not None else [0],
        )
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
    if args.stream_output:
        # Streaming mode: every resolved point is appended to the JSONL
        # sink the moment it lands (and flushed), so a killed run leaves a
        # complete record of everything it finished; the final result is
        # assembled from the same events.
        evaluations = [None] * len(plan)
        with open(args.stream_output, "a", encoding="utf-8") as handle:
            for event in executor.stream(plan, resume=args.resume):
                write_jsonl_line(
                    handle,
                    {
                        "schema": _STREAM_LINE_SCHEMA,
                        "kind": "run",
                        "done": event.done,
                        "total": event.total,
                        "source": event.source,
                        "plan_indices": list(event.plan_indices),
                        "request": event.request.to_dict(),
                        "evaluation": event.evaluation.to_dict(),
                    },
                )
                for index in event.plan_indices:
                    evaluations[index] = event.evaluation
        result = SweepRunResult(
            evaluations=evaluations,
            stats=take_last_run_stats() or ExecutorStats(),
        )
    else:
        result = executor.run(plan, resume=args.resume)
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
    from .service.wire import validate_plan_mappers

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
    stream_handle = None
    progress = None
    started = time.time()
    try:
        if args.stream_output:
            stream_handle = open(args.stream_output, "a", encoding="utf-8")

            def progress(event):
                write_jsonl_line(
                    stream_handle,
                    {
                        "schema": _STREAM_LINE_SCHEMA,
                        "kind": "shard",
                        "done": event.done,
                        "phase": event.phase,
                        "source": event.source,
                        "plan_index": event.plan_index,
                        "fingerprint": event.fingerprint,
                        "request": event.request.to_dict(),
                        "evaluation": event.evaluation.to_dict(),
                    },
                )

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
    finally:
        if stream_handle is not None:
            stream_handle.close()
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


def run_experiment(name: str, **kwargs) -> str:
    """Run an experiment by name and return its formatted result.

    Backward-compatible helper: new code should use
    :func:`repro.api.run_experiment`, which returns the structured result
    object instead of pre-rendered text.
    """
    spec = get_experiment(name)
    return spec.format(spec.run(**kwargs))


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
    result = spec.run(**kwargs)
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
