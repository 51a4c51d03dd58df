"""Declarative experiment registry with typed parameter specs.

An *experiment* is a named, parameterised run producing a structured result
object (with ``to_dict()`` for JSON output) plus a formatter rendering it as
a printable table.  Experiments register with :func:`register_experiment`;
the command-line interface generates its per-experiment options directly
from each experiment's :class:`ParamSpec` list, so registering a new
experiment is all it takes to make it runnable (and ``--json``-able) from
the shell.

A *sweep* experiment declares what it evaluates instead of running it:
``requests(**params)`` lists its
:class:`~repro.api.pipeline.EvaluationRequest` objects and
``assemble(evaluations, **params)`` builds the result from their
evaluations, in request order.  :meth:`ExperimentSpec.run` executes every
sweep experiment the same way, on one
:class:`~repro.api.executor.SweepExecutor` with the ``workers`` parameter.
Any other experiment registers a runner that computes its result itself:

.. code-block:: python

    from repro.api import ParamSpec, register_experiment

    @register_experiment(
        "my-study",
        params=[ParamSpec("capacity", "int", default=8, help="factory size")],
        formatter=lambda result: str(result),
        description="my custom study",
    )
    def run_my_study(capacity=8, seed=0):
        ...
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .executor import SweepExecutor, SweepRunResult
from .pipeline import EvaluationRequest, RequestError
from .registry import Registry

#: Parameter kinds understood by the CLI generator.
PARAM_KINDS = ("int", "float", "str", "int_list", "flag")


def parse_int_list(text: Any) -> List[int]:
    """Parse ``"4,16,36"`` (or an already-parsed sequence) into ints.

    An empty list (``""``, ``","``, ``[]``) is an error, not a request for
    the defaults: a parameter left unset is ``None``.
    """
    if isinstance(text, (list, tuple)):
        values = [int(item) for item in text]
    else:
        try:
            values = [int(token) for token in str(text).split(",") if token.strip()]
        except ValueError as error:
            raise ValueError(
                f"expected comma-separated integers, got {text!r}"
            ) from error
    if not values:
        raise ValueError(f"expected at least one integer, got {text!r}")
    return values


@dataclass(frozen=True)
class ParamSpec:
    """One typed experiment parameter, as exposed on the CLI.

    Attributes
    ----------
    name:
        Python keyword name of the parameter (``num_mappings``); the CLI
        option is derived from it (``--num-mappings``).
    kind:
        One of :data:`PARAM_KINDS`.
    default:
        Default value; ``None`` means "let the runner decide".
    help:
        Help text shown by ``repro-msfu run <experiment> --help``.
    """

    name: str
    kind: str = "int"
    default: Any = None
    help: str = ""

    def __post_init__(self) -> None:
        if self.kind not in PARAM_KINDS:
            raise ValueError(
                f"unknown param kind {self.kind!r}; expected one of {PARAM_KINDS}"
            )

    @property
    def option(self) -> str:
        """The ``--option-name`` spelling of this parameter."""
        return "--" + self.name.replace("_", "-")

    def convert(self, value: Any) -> Any:
        """Coerce a raw (CLI or JSON) value to the parameter's type."""
        if value is None:
            return None
        if self.kind == "int":
            return int(value)
        if self.kind == "float":
            return float(value)
        if self.kind == "str":
            return str(value)
        if self.kind == "int_list":
            return parse_int_list(value)
        return bool(value)


#: The common trailing parameter shared by every built-in experiment.
SEED_PARAM = ParamSpec("seed", "int", default=0, help="random seed")

#: Worker-count parameter of the sweep experiments: the ``workers`` of the
#: :class:`repro.api.executor.SweepExecutor` that :meth:`ExperimentSpec.run`
#: executes the requests on (``1`` serial; identical results at any count).
WORKERS_PARAM = ParamSpec(
    "workers", "int", default=1, help="worker processes for the sweep (1 = serial)"
)


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: what it runs, formatter and parameter schema.

    Either ``runner`` computes the result, or the experiment is a sweep:
    ``requests`` and ``assemble`` are set and ``runner`` is ``None``.
    """

    name: str
    runner: Optional[Callable[..., Any]]
    formatter: Callable[[Any], str]
    params: Tuple[ParamSpec, ...] = field(default_factory=tuple)
    description: str = ""
    requests: Optional[Callable[..., Sequence[EvaluationRequest]]] = None
    assemble: Optional[Callable[..., Any]] = None

    def run(self, **kwargs: Any) -> Any:
        """Run the experiment; ``None`` kwargs fall back to runner defaults."""
        return self.execute(**kwargs)[0]

    def execute(self, **kwargs: Any) -> Tuple[Any, Optional[SweepRunResult]]:
        """Run the experiment; also return its sweep run (``None`` for a runner).

        A sweep's requests run on a new executor, so its
        :class:`~repro.api.executor.ExecutorStats` count this run alone.
        Everything is checked before the executor starts: a worker count
        below 1 raises :class:`~repro.api.pipeline.RequestError` (field
        ``workers``), and so does a capacity with no factory (field
        ``capacities``), before anything is evaluated.
        """
        known = {spec.name: spec for spec in self.params}
        params: Dict[str, Any] = {}
        for key, value in kwargs.items():
            if value is None:
                continue
            spec = known.get(key)
            params[key] = spec.convert(value) if spec else value
        if self.requests is None:
            return self.runner(**params), None
        workers = params.pop("workers", 1)
        if workers < 1:
            raise RequestError(f"must be >= 1, got {workers}", field="workers")
        executor = SweepExecutor(workers=workers)
        requests = list(self.requests(**params))
        for request in requests:
            try:
                request.spec()
            except ValueError as error:
                raise RequestError(str(error), field="capacities") from error
        swept = executor.run(requests)
        return self.assemble(swept.evaluations, **params), swept

    def format(self, result: Any) -> str:
        """Render a result for humans."""
        return self.formatter(result)


#: The global experiment registry.
experiment_registry: Registry[ExperimentSpec] = Registry("experiment")

_builtins_loaded = False


def _load_builtin_experiments() -> None:
    """Import :mod:`repro.experiments` so the paper's artifacts register.

    Deferred to first lookup: the experiment modules import this module for
    the registration decorator, so importing them here at module-import time
    would be circular.
    """
    global _builtins_loaded
    if _builtins_loaded:
        return
    from .. import experiments  # noqa: F401  (importing runs registrations)

    # Mark loaded only after a successful import: if it raises (e.g. a
    # missing dependency), later calls must retry and surface the real
    # error rather than silently reporting an empty registry.  The
    # experiment modules never call back into the registry lookups at
    # import time, so this cannot recurse.
    _builtins_loaded = True


def register_experiment(
    name: str,
    runner: Optional[Callable[..., Any]] = None,
    *,
    requests: Optional[Callable[..., Sequence[EvaluationRequest]]] = None,
    assemble: Optional[Callable[..., Any]] = None,
    formatter: Optional[Callable[[Any], str]] = None,
    params: Sequence[ParamSpec] = (),
    description: str = "",
    overwrite: bool = False,
):
    """Register an experiment; usable as a decorator over the runner.

    With ``runner`` given, or ``requests`` and ``assemble`` for a sweep
    experiment, registers immediately and returns the
    :class:`ExperimentSpec`.  Without any, returns a decorator (the
    decorated function is returned unchanged, so the module keeps its plain
    ``run``).
    """
    if (requests is None) != (assemble is None) or (
        requests is not None and runner is not None
    ):
        raise ValueError(
            f"experiment {name!r}: give a runner, or requests and assemble"
        )

    def _register(fn: Optional[Callable[..., Any]]) -> ExperimentSpec:
        spec = ExperimentSpec(
            name=name,
            runner=fn,
            formatter=formatter if formatter is not None else str,
            params=tuple(params),
            description=description,
            requests=requests,
            assemble=assemble,
        )
        experiment_registry.register(name, spec, overwrite=overwrite)
        return spec

    if runner is not None or requests is not None:
        return _register(runner)

    def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
        _register(fn)
        return fn

    return decorator


def get_experiment(name: str) -> ExperimentSpec:
    """Look up a registered experiment; the error lists registered names."""
    _load_builtin_experiments()
    return experiment_registry.get(name)


def available_experiments() -> List[str]:
    """Names of all registered experiments, in registration order."""
    _load_builtin_experiments()
    return experiment_registry.names()


def unregister_experiment(name: str) -> ExperimentSpec:
    """Remove an experiment from the registry (useful in tests/plugins)."""
    _load_builtin_experiments()
    return experiment_registry.unregister(name)


def run_experiment(name: str, **kwargs: Any) -> Any:
    """Run a registered experiment and return its *structured* result."""
    return get_experiment(name).run(**kwargs)
