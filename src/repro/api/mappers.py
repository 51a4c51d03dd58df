"""The pluggable mapper protocol and registry.

A *mapper* turns a built factory into a placement of its logical qubits on
the tile grid (optionally with extra routing metadata).  Mappers register
under a name with :func:`register_mapper`; the evaluation pipeline looks
them up by name, so a third-party mapper plugs into every sweep, figure and
CLI invocation without touching the analysis layer:

.. code-block:: python

    from repro.api import Mapper, SweepExecutor, SweepPlan, register_mapper

    @register_mapper
    class SpiralMapper(Mapper):
        name = "spiral"

        def place(self, factory, *, seed=0, context=None):
            return my_spiral_placement(factory.circuit)

    SweepExecutor().run(SweepPlan.from_grid(["linear", "spiral"], [2, 4]))

A mapper returns either a plain :class:`~repro.mapping.placement.Placement`
(evaluated against the factory circuit it was given) or a
:class:`~repro.mapping.stitching.StitchedMapping` when the procedure rewires
the circuit or adds intermediate routing hops (as hierarchical stitching
does).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from ..distillation.block_code import Factory
from ..graphs.interaction import interaction_graph
from ..mapping.force_directed import ForceDirectedConfig, force_directed_refine
from ..mapping.graph_partition import graph_partition_placement
from ..mapping.linear import linear_factory_placement
from ..mapping.placement import Placement
from ..mapping.random_map import random_circuit_placement
from ..mapping.stitching import (
    StitchedMapping,
    StitchingConfig,
    hierarchical_stitching,
)
from .registry import Registry, RegistryError

#: What a mapper may return: a bare placement for the given circuit, or a
#: stitched mapping carrying a (possibly rewired) factory and braid hops.
MappingOutcome = Union[Placement, StitchedMapping]


@dataclass
class MapperContext:
    """Per-evaluation configuration handed to every mapper.

    The typed fields carry the tuning knobs of the built-in procedures;
    ``options`` is a free-form bag for third-party mappers (populated from
    :attr:`repro.api.pipeline.EvaluationRequest.options`).
    """

    fd_config: Optional[ForceDirectedConfig] = None
    stitch_config: Optional[StitchingConfig] = None
    options: Dict[str, Any] = field(default_factory=dict)


class Mapper(abc.ABC):
    """Protocol for a qubit-mapping procedure.

    Subclasses set :attr:`name` and implement :meth:`place`.  Mappers must
    treat the factory as read-only: the pipeline shares one built factory
    across every mapper in a sweep.
    """

    #: Registry name of the procedure (e.g. ``"linear"``).
    name: str = ""

    @abc.abstractmethod
    def place(
        self,
        factory: Factory,
        *,
        seed: int = 0,
        context: Optional[MapperContext] = None,
    ) -> MappingOutcome:
        """Map ``factory``'s qubits onto the grid."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


class FunctionMapper(Mapper):
    """Adapter registering a plain callable as a mapper.

    The callable receives ``(factory, seed=..., context=...)`` and returns a
    :data:`MappingOutcome`.
    """

    def __init__(self, name: str, fn: Callable[..., MappingOutcome]) -> None:
        self.name = name
        self._fn = fn

    def place(self, factory, *, seed=0, context=None):
        return self._fn(factory, seed=seed, context=context)


#: The global mapper registry.
mapper_registry: Registry[Mapper] = Registry("mapper")


def register_mapper(obj=None, *, name: Optional[str] = None, overwrite: bool = False):
    """Register a mapper class, instance or function (decorator-friendly).

    Accepts a :class:`Mapper` subclass (instantiated with no arguments), a
    ready instance, or a plain function (wrapped in :class:`FunctionMapper`).
    Usable bare (``@register_mapper``) or parameterised
    (``@register_mapper(name="spiral")``).
    """
    if obj is None:
        def decorator(inner):
            return register_mapper(inner, name=name, overwrite=overwrite)
        return decorator

    if isinstance(obj, type) and issubclass(obj, Mapper):
        instance: Mapper = obj()
        resolved = name or instance.name
        if not resolved:
            raise RegistryError(f"mapper class {obj.__name__} has no name")
        instance.name = resolved
        mapper_registry.register(resolved, instance, overwrite=overwrite)
        return obj
    if isinstance(obj, Mapper):
        resolved = name or obj.name
        if not resolved:
            raise RegistryError(f"mapper instance {obj!r} has no name")
        # Register before renaming: a duplicate-name failure must leave the
        # caller's instance untouched.
        mapper_registry.register(resolved, obj, overwrite=overwrite)
        obj.name = resolved
        return obj
    if callable(obj):
        resolved = name or getattr(obj, "__name__", "")
        if not resolved:
            raise RegistryError(f"cannot infer a name for mapper {obj!r}")
        mapper_registry.register(
            resolved, FunctionMapper(resolved, obj), overwrite=overwrite
        )
        return obj
    raise RegistryError(f"cannot register {obj!r} as a mapper")


def get_mapper(name: str) -> Mapper:
    """Look up a registered mapper; the error lists registered names."""
    return mapper_registry.get(name)


def available_mappers() -> List[str]:
    """Names of all registered mappers, in registration order."""
    return mapper_registry.names()


def unregister_mapper(name: str) -> Mapper:
    """Remove a mapper from the registry (useful in tests/plugins)."""
    return mapper_registry.unregister(name)


# ----------------------------------------------------------------------
# Built-in mappers (the five procedures of the paper, in its order)
# ----------------------------------------------------------------------
@register_mapper
class RandomMapper(Mapper):
    """Uniformly random placement (the paper's worst-case baseline)."""

    name = "random"

    def place(self, factory, *, seed=0, context=None):
        return random_circuit_placement(factory.circuit, seed=seed)


@register_mapper
class LinearMapper(Mapper):
    """Hand-optimized linear block layout (Fowler-style baseline)."""

    name = "linear"

    def place(self, factory, *, seed=0, context=None):
        return linear_factory_placement(factory)


@register_mapper
class ForceDirectedMapper(Mapper):
    """Force-directed annealing refinement of the linear layout."""

    name = "force_directed"

    def place(self, factory, *, seed=0, context=None):
        initial = linear_factory_placement(factory)
        graph = interaction_graph(factory.circuit)
        config = (context.fd_config if context else None) or ForceDirectedConfig(
            seed=seed
        )
        return force_directed_refine(graph, initial, config)


@register_mapper
class GraphPartitionMapper(Mapper):
    """Recursive graph-partitioning placement."""

    name = "graph_partition"

    def place(self, factory, *, seed=0, context=None):
        return graph_partition_placement(factory.circuit, seed=seed)


@register_mapper
class HierarchicalStitchingMapper(Mapper):
    """The paper's hierarchical stitching procedure (Section VII).

    Returns a :class:`StitchedMapping`: port reassignment rewires the
    inter-round permutation, so the evaluation must use the stitched
    factory's circuit and hop map rather than the shared base factory.
    """

    name = "hierarchical_stitching"

    def place(self, factory, *, seed=0, context=None):
        config = context.stitch_config if context else None
        return hierarchical_stitching(
            factory.spec,
            reuse_policy=factory.reuse_policy,
            config=config,
            factory=factory,
        )
