"""Declarative experiment registry with typed parameter specs.

An *experiment* is a named, parameterised run producing a structured result
object (with ``to_dict()`` for JSON output) plus a formatter rendering it as
a printable table.  Experiments register with :func:`register_experiment`;
the command-line interface generates its per-experiment options directly
from each experiment's :class:`ParamSpec` list, so registering a new
experiment is all it takes to make it runnable (and ``--json``-able) from
the shell:

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

from .registry import Registry

#: Parameter kinds understood by the CLI generator.
PARAM_KINDS = ("int", "float", "str", "int_list", "flag")


def parse_int_list(text: Any) -> List[int]:
    """Parse ``"4,16,36"`` (or an already-parsed sequence) into ints."""
    if isinstance(text, (list, tuple)):
        return [int(item) for item in text]
    try:
        return [int(token) for token in str(text).split(",") if token.strip()]
    except ValueError as error:
        raise ValueError(
            f"expected comma-separated integers, got {text!r}"
        ) from error


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

#: Worker-count parameter of the sweep-style experiments: ``1`` runs the
#: sweep serially, higher values execute it across a process pool via
#: :class:`repro.api.executor.SweepExecutor` (identical results, same order).
WORKERS_PARAM = ParamSpec(
    "workers", "int", default=1, help="worker processes for the sweep (1 = serial)"
)


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: runner, formatter and parameter schema."""

    name: str
    runner: Callable[..., Any]
    formatter: Callable[[Any], str]
    params: Tuple[ParamSpec, ...] = field(default_factory=tuple)
    description: str = ""

    def run(self, **kwargs: Any) -> Any:
        """Run the experiment; ``None`` kwargs fall back to runner defaults."""
        known = {spec.name: spec for spec in self.params}
        filtered: Dict[str, Any] = {}
        for key, value in kwargs.items():
            if value is None:
                continue
            spec = known.get(key)
            filtered[key] = spec.convert(value) if spec else value
        return self.runner(**filtered)

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
    formatter: Optional[Callable[[Any], str]] = None,
    params: Sequence[ParamSpec] = (),
    description: str = "",
    overwrite: bool = False,
):
    """Register an experiment; usable as a decorator over the runner.

    With ``runner`` given, registers immediately and returns the
    :class:`ExperimentSpec`.  Without it, returns a decorator (the decorated
    function is returned unchanged, so the module keeps its plain ``run``).
    """

    def _register(fn: Callable[..., Any]) -> ExperimentSpec:
        spec = ExperimentSpec(
            name=name,
            runner=fn,
            formatter=formatter if formatter is not None else str,
            params=tuple(params),
            description=description,
        )
        experiment_registry.register(name, spec, overwrite=overwrite)
        return spec

    if runner is not None:
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
