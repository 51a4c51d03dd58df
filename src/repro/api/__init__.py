"""Pluggable evaluation API: mapper registry, pipeline, experiment registry.

This package is the extension surface of the toolchain.  Third-party code
adds mapping procedures with :func:`register_mapper` and new paper-style
studies with :func:`register_experiment`; everything registered becomes
available to :class:`Pipeline`, :func:`capacity_sweep` and the ``repro-msfu``
command line (including ``--json`` machine-readable output) without touching
the analysis layer.

The core abstractions:

* :class:`Mapper` — a named qubit-mapping procedure
  (``place(factory, *, seed, context)``), looked up by name in a registry;
* :class:`EvaluationRequest` / :class:`Pipeline` — the unified
  build -> map -> simulate run model, caching built factory circuits so a
  sweep over many mappers constructs each configuration exactly once, and
  memoizing simulation results so repeated sweep points never re-simulate;
* :class:`SweepPlan` / :class:`SweepExecutor` — explicit sweep plans
  (parameter grids expanded into independent requests) scheduled serially
  or across worker processes with deterministic result ordering;
* :class:`ResultStore` — the on-disk, content-addressed result store that
  memoizes evaluations *across* processes and machines (keyed by
  :func:`request_fingerprint`), making sweeps resumable (``resume=True``)
  and CI bench comparisons possible;
* :class:`ExperimentSpec` / :class:`ParamSpec` — declarative experiments
  whose typed parameters drive the auto-generated CLI options.
"""

from .executor import (
    ExecutorStats,
    SweepExecutor,
    SweepPlan,
    SweepProgress,
    SweepRunResult,
    recommended_workers,
    take_last_run_stats,
)
from .experiments import (
    PARAM_KINDS,
    SEED_PARAM,
    WORKERS_PARAM,
    ExperimentSpec,
    ParamSpec,
    available_experiments,
    experiment_registry,
    get_experiment,
    parse_int_list,
    register_experiment,
    run_experiment,
    unregister_experiment,
)
from .mappers import (
    FunctionMapper,
    Mapper,
    MapperContext,
    MappingOutcome,
    available_mappers,
    get_mapper,
    mapper_registry,
    register_mapper,
    unregister_mapper,
)
from .pipeline import (
    EvaluationRequest,
    Pipeline,
    PipelineStats,
    RequestError,
    capacity_sweep,
    default_pipeline,
    evaluate_factory_mapping,
)
from .registry import Registry, RegistryError
from .results import FactoryEvaluation, from_json, to_json
from .sharding import (
    SHARD_STRATEGIES,
    ClaimDir,
    ShardProgress,
    ShardRunResult,
    ShardSpec,
    load_shard_file,
    plan_fingerprint,
    run_shard,
    shard_specs,
    write_shard_files,
)
from .store import (
    STORE_SCHEMA_VERSION,
    GcReport,
    MergeConflictError,
    MergeReport,
    MergeSourceReport,
    ResultStore,
    ResultStoreWarning,
    StoreStatus,
    current_git_sha,
    request_fingerprint,
    store_metadata,
)

__all__ = [
    "ExecutorStats",
    "SweepExecutor",
    "SweepPlan",
    "SweepProgress",
    "SweepRunResult",
    "recommended_workers",
    "take_last_run_stats",
    "PARAM_KINDS",
    "SEED_PARAM",
    "WORKERS_PARAM",
    "ExperimentSpec",
    "ParamSpec",
    "available_experiments",
    "experiment_registry",
    "get_experiment",
    "parse_int_list",
    "register_experiment",
    "run_experiment",
    "unregister_experiment",
    "FunctionMapper",
    "Mapper",
    "MapperContext",
    "MappingOutcome",
    "available_mappers",
    "get_mapper",
    "mapper_registry",
    "register_mapper",
    "unregister_mapper",
    "EvaluationRequest",
    "Pipeline",
    "PipelineStats",
    "RequestError",
    "capacity_sweep",
    "default_pipeline",
    "evaluate_factory_mapping",
    "Registry",
    "RegistryError",
    "FactoryEvaluation",
    "from_json",
    "to_json",
    "SHARD_STRATEGIES",
    "ClaimDir",
    "ShardProgress",
    "ShardRunResult",
    "ShardSpec",
    "load_shard_file",
    "plan_fingerprint",
    "run_shard",
    "shard_specs",
    "write_shard_files",
    "STORE_SCHEMA_VERSION",
    "GcReport",
    "MergeConflictError",
    "MergeReport",
    "MergeSourceReport",
    "ResultStore",
    "ResultStoreWarning",
    "StoreStatus",
    "current_git_sha",
    "request_fingerprint",
    "store_metadata",
]
