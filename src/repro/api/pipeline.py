"""The unified build -> map -> simulate evaluation pipeline.

:class:`Pipeline` is the one evaluation path behind every figure, table,
sweep and CLI run.  It resolves a mapper from the registry, builds the
factory circuit (caching it so a sweep over many mappers builds each
``(capacity, levels, reuse)`` configuration exactly once — factory
construction dominates the two-level benches), runs the braid simulator and
reports the :class:`~repro.api.results.FactoryEvaluation` data point.

:class:`EvaluationRequest` is the serializable description of one such run.
Many requests run through a :class:`~repro.api.executor.SweepExecutor`,
which owns the pipelines that evaluate them.
"""

from __future__ import annotations

import dataclasses
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..circuits.gates import DEFAULT_DURATIONS, GateKind
from ..distillation.block_code import (
    Factory,
    FactorySpec,
    ReusePolicy,
    build_factory,
)
from ..mapping.force_directed import (
    ForceDirectedConfig,
    refine_run_count,
    take_refine_stats,
)
from ..mapping.stitching import StitchedMapping, StitchingConfig
from ..routing.simulator import SimulationCache, SimulatorConfig
from ..scheduling.critical_path import (
    factory_area_lower_bound,
    factory_latency_lower_bound,
)
from .mappers import MapperContext, get_mapper
from .results import FactoryEvaluation, encode_value, filter_fields


def _reuse_policy(reuse: bool) -> ReusePolicy:
    return ReusePolicy.REUSE if reuse else ReusePolicy.NO_REUSE


class RequestError(ValueError):
    """A request that cannot be evaluated as given.

    ``field`` is the dotted path of the value at fault (``sim_config.hops``,
    ``requests[3].capacity``), or ``None`` when the problem is the request
    as a whole.  ``str()`` always includes the path; the sweep service
    answers the error with HTTP 400 and :meth:`to_dict` as the body.
    """

    def __init__(self, message: str, field: Optional[str] = None) -> None:
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)

    def to_dict(self) -> dict:
        """The JSON body a 400 response carries."""
        return {"error": {"message": str(self), "field": self.field}}


# ----------------------------------------------------------------------
# Request model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EvaluationRequest:
    """Everything needed to evaluate one factory configuration.

    ``capacity`` is the total output capacity of the factory (``k`` for a
    single-level factory, ``k**2`` for a two-level one, matching the x-axes
    of Fig. 7 and Fig. 10).  ``options`` is a free-form bag forwarded to the
    mapper via :class:`~repro.api.mappers.MapperContext` for third-party
    procedures with their own knobs.
    """

    method: str
    capacity: int
    levels: int = 1
    reuse: bool = False
    seed: int = 0
    fd_config: Optional[ForceDirectedConfig] = None
    stitch_config: Optional[StitchingConfig] = None
    sim_config: Optional[SimulatorConfig] = None
    options: Mapping[str, Any] = field(default_factory=dict)

    def context(self) -> MapperContext:
        """The mapper-facing view of this request."""
        return MapperContext(
            fd_config=self.fd_config,
            stitch_config=self.stitch_config,
            options=dict(self.options),
        )

    def spec(self) -> FactorySpec:
        """The factory spec this request evaluates."""
        return FactorySpec.from_capacity(self.capacity, self.levels)

    def with_effective_sim_config(self) -> "EvaluationRequest":
        """This request with its *effective* simulator config made explicit.

        A ``sim_config`` of ``None`` means the default
        :class:`~repro.routing.simulator.SimulatorConfig`, so the implicit
        and the explicit default are one request: the store fingerprints
        and persists this resolved form
        (:func:`repro.api.store.request_fingerprint`).  A request that
        carries a config is returned as it is.
        """
        if self.sim_config is not None:
            return self
        return replace(self, sim_config=SimulatorConfig())

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe encoding (configs become plain dicts)."""
        data: Dict[str, Any] = {
            "method": self.method,
            "capacity": self.capacity,
            "levels": self.levels,
            "reuse": self.reuse,
            "seed": self.seed,
            "fd_config": encode_value(self.fd_config),
            "stitch_config": encode_value(self.stitch_config),
            "sim_config": _encode_sim_config(self.sim_config),
            "options": encode_value(dict(self.options)),
        }
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EvaluationRequest":
        """Inverse of :meth:`to_dict`."""
        payload = dict(filter_fields(cls, data))
        for key, decode in CONFIG_DECODERS.items():
            payload[key] = decode(payload[key]) if payload.get(key) else None
        payload["options"] = dict(payload.get("options") or {})
        return cls(**payload)


def _encode_sim_config(config: Optional[SimulatorConfig]) -> Optional[Dict[str, Any]]:
    if config is None:
        return None
    return {
        "durations": {kind.value: int(v) for kind, v in config.durations.items()},
        "allow_detour": config.allow_detour,
        "detour_slack": config.detour_slack,
        "max_candidates": config.max_candidates,
        "hops": {str(index): list(cell) for index, cell in config.hops.items()},
        "max_cycles": config.max_cycles,
    }


def _decode_sim_config(data: Mapping[str, Any]) -> SimulatorConfig:
    """A ``durations`` table overrides only the kinds it names."""
    payload = dict(data)
    durations = dict(DEFAULT_DURATIONS)
    for kind, cycles in dict(payload.get("durations") or {}).items():
        durations[GateKind(kind)] = cycles
    payload["durations"] = durations
    payload["hops"] = {
        int(index): tuple(cell)
        for index, cell in dict(payload.get("hops") or {}).items()
    }
    return SimulatorConfig(**payload)


#: The decoder of each config object of an encoded request, by key.
CONFIG_DECODERS: Dict[str, Callable[[Mapping[str, Any]], Any]] = {
    "fd_config": lambda data: ForceDirectedConfig(**data),
    "stitch_config": lambda data: StitchingConfig(**data),
    "sim_config": _decode_sim_config,
}


# ----------------------------------------------------------------------
# Pipeline
# ----------------------------------------------------------------------
@dataclass
class PipelineStats:
    """Counters exposed for tests, benchmarking and capacity planning.

    ``factory_builds`` / ``cache_hits`` count factory-circuit construction
    against the LRU factory cache; ``sim_cache_hits`` counts simulations
    answered from the :class:`~repro.routing.simulator.SimulationCache`
    without re-simulating; ``fd_sweeps`` / ``fd_moves_accepted`` aggregate
    the force-directed annealer's :class:`~repro.mapping.force_directed.RefineStats`
    over every refinement the pipeline's mappers ran.

    ``sim_stall_events`` / ``sim_distinct_stalls`` / ``sim_wakeups``
    aggregate the simulator's stall counters (see
    :class:`~repro.routing.simulator.SimulationResult`) over every
    evaluation, cached or not — they describe the evaluated workloads, not
    the simulation work this process performed, so the numbers are stable
    across cache states and worker counts.

    ``build_seconds`` / ``map_seconds`` / ``sim_seconds`` split the wall
    time of the three pipeline phases — factory-circuit construction
    (cache misses only), mapper placement, and simulation (including
    batched runs; cache hits cost ~0) — so a bench regression is
    attributable to the right layer instead of only to total wall time.
    """

    factory_builds: int = 0
    cache_hits: int = 0
    evaluations: int = 0
    sim_cache_hits: int = 0
    fd_sweeps: int = 0
    fd_moves_accepted: int = 0
    sim_stall_events: int = 0
    sim_distinct_stalls: int = 0
    sim_wakeups: int = 0
    build_seconds: float = 0.0
    map_seconds: float = 0.0
    sim_seconds: float = 0.0

    def snapshot(self) -> "PipelineStats":
        """An independent copy (used for before/after deltas)."""
        return dataclasses.replace(self)

    def delta(self, earlier: "PipelineStats") -> "PipelineStats":
        """Counter-wise difference ``self - earlier`` over every field."""
        return PipelineStats(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in dataclasses.fields(self)
            }
        )


class Pipeline:
    """Build -> map -> simulate, with factory-circuit and simulation caching.

    A pure evaluator: it never reads or writes a
    :class:`~repro.api.store.ResultStore`.  The layers that persist results
    (:class:`~repro.api.executor.SweepExecutor`, the sweep service) own
    their store and decide when to probe it.

    Parameters
    ----------
    cache_size:
        Maximum number of built factories kept alive (LRU).  Two-level
        factories are large, so the cache is bounded.  Simulation results
        are memoized in a bounded
        :class:`~repro.routing.simulator.SimulationCache`, so repeated sweep
        points never re-simulate.
    """

    def __init__(self, cache_size: int = 8) -> None:
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        self.cache_size = cache_size
        self.sim_cache = SimulationCache()
        self.stats = PipelineStats()
        self._factories: "OrderedDict[Tuple[int, int, ReusePolicy], Factory]" = (
            OrderedDict()
        )

    # ------------------------------------------------------------------
    # Factory cache
    # ------------------------------------------------------------------
    def factory(self, capacity: int, levels: int = 1, reuse: bool = False) -> Factory:
        """The (cached) base factory for a configuration.

        Factories are always built with barriers between rounds — every
        mapper is evaluated on the same barriered schedule so the comparison
        isolates mapping quality (Section V-A).  Callers must treat the
        returned factory as read-only.
        """
        spec = FactorySpec.from_capacity(capacity, levels)
        key = (spec.k, spec.levels, _reuse_policy(reuse))
        cached = self._factories.get(key)
        if cached is not None:
            self._factories.move_to_end(key)
            self.stats.cache_hits += 1
            return cached
        build_started = time.perf_counter()
        built = build_factory(
            spec, reuse_policy=key[2], barriers_between_rounds=True
        )
        self.stats.build_seconds += time.perf_counter() - build_started
        self.stats.factory_builds += 1
        self._factories[key] = built
        while len(self._factories) > self.cache_size:
            self._factories.popitem(last=False)
        return built

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _map_request(self, mapper, request: EvaluationRequest, sim_config):
        """Build the factory and run the mapper for one request.

        Returns the concrete simulation point ``(circuit, placement,
        config)`` — with hop configs resolved for stitched mappings — after
        folding the mapper's refinement statistics into :attr:`stats`.
        Stitched mappings replace the request's hops; any other mapping
        raises :class:`RequestError` if a hop lies outside its grid.
        """
        factory = self.factory(request.capacity, request.levels, request.reuse)

        # Attribute only the refinements this mapper run causes: records
        # already pending (from refinements outside the pipeline) are popped
        # along with ours — take-channel semantics — but excluded from the
        # pipeline's counters.  The monotonic run counter makes the slice
        # exact even if the bounded pending list truncated meanwhile.
        runs_before = refine_run_count()
        map_started = time.perf_counter()
        outcome = mapper.place(factory, seed=request.seed, context=request.context())
        self.stats.map_seconds += time.perf_counter() - map_started
        new_runs = refine_run_count() - runs_before
        taken = take_refine_stats()
        for refine in taken[max(0, len(taken) - new_runs) :] if new_runs else []:
            self.stats.fd_sweeps += refine.sweeps
            self.stats.fd_moves_accepted += refine.accepted_moves

        if isinstance(outcome, StitchedMapping):
            hop_config = replace(sim_config, hops=outcome.hops)
            return outcome.factory.circuit, outcome.placement, hop_config
        # A hop outside the grid would cost routing time and memory linear
        # in its distance; no mapper places one there, so it is an error.
        for gate, cell in sim_config.hops.items():
            if cell[0] >= outcome.height or cell[1] >= outcome.width:
                raise RequestError(
                    f"the hop of gate {gate} at tile {tuple(cell)} lies outside "
                    f"the {outcome.height}x{outcome.width} grid of the "
                    f"{request.method!r} placement",
                    field="sim_config.hops",
                )
        return factory.circuit, outcome, sim_config

    def _result_point(
        self, request: EvaluationRequest, sim_config, placement, sim_result
    ) -> FactoryEvaluation:
        """Fold one simulation result into the reported data point."""
        # Imported lazily: repro.analysis imports this module at package
        # initialisation, so a top-level import would be circular.
        from ..analysis.volume import mapping_area

        area = mapping_area(placement)
        spec = request.spec()
        self.stats.evaluations += 1
        self.stats.sim_stall_events += sim_result.stall_events
        self.stats.sim_distinct_stalls += sim_result.distinct_stalls
        self.stats.sim_wakeups += sim_result.wakeups
        return FactoryEvaluation(
            method=request.method,
            capacity=request.capacity,
            levels=request.levels,
            reuse=request.reuse,
            latency=sim_result.latency,
            area=area,
            volume=sim_result.latency * area,
            critical_latency=factory_latency_lower_bound(
                spec, dict(sim_config.durations)
            ),
            critical_area=factory_area_lower_bound(spec),
            stall_cycles=sim_result.stall_cycles,
        )

    def evaluate(self, request: EvaluationRequest) -> FactoryEvaluation:
        """Run one request end to end and return its data point."""
        # Resolve the mapper first: an unknown name should fail before any
        # factory is built, with a message listing the registered mappers.
        mapper = get_mapper(request.method)
        sim_config = request.sim_config or SimulatorConfig()
        circuit, placement, point_config = self._map_request(
            mapper, request, sim_config
        )
        hits_before = self.sim_cache.hits
        sim_started = time.perf_counter()
        sim_result = self.sim_cache.simulate(circuit, placement, point_config)
        self.stats.sim_seconds += time.perf_counter() - sim_started
        self.stats.sim_cache_hits += self.sim_cache.hits - hits_before
        return self._result_point(request, sim_config, placement, sim_result)

    def evaluate_batch(
        self, requests: Sequence[EvaluationRequest]
    ) -> List[FactoryEvaluation]:
        """Evaluate many requests, batching the cache-missing simulations.

        Semantically identical to ``[self.evaluate(r) for r in requests]``
        — same results, same cache accounting — but the simulations not
        answered by the :class:`~repro.routing.simulator.SimulationCache`
        are executed in one :func:`~repro.routing.batchsim.simulate_batch`
        call, which groups same-circuit points and runs them through the
        compiled batched kernel.
        """
        # Imported lazily, like the other analysis/routing consumers above.
        from ..routing.batchsim import simulate_batch
        from ..routing.simulator import simulation_cache_key

        requests = list(requests)
        results: List[Optional[FactoryEvaluation]] = [None] * len(requests)
        points: List[tuple] = []  # unique cache-missing (circuit, placement, config)
        point_of_key: Dict[tuple, int] = {}
        # Deferred finishing context per request: (position, sim_config,
        # placement, point_index, first).
        deferred: List[tuple] = []

        for position, request in enumerate(requests):
            mapper = get_mapper(request.method)
            sim_config = request.sim_config or SimulatorConfig()
            circuit, placement, point_config = self._map_request(
                mapper, request, sim_config
            )
            point = (circuit, placement, point_config)
            key = simulation_cache_key(circuit, placement, point_config)
            cached = (
                self.sim_cache.lookup(circuit, placement, point_config)
                if key not in point_of_key
                else None
            )
            if cached is not None:
                self.stats.sim_cache_hits += 1
                results[position] = self._result_point(
                    request, sim_config, placement, cached
                )
                continue
            point_index = point_of_key.get(key)
            first = point_index is None
            if first:
                point_index = len(points)
                point_of_key[key] = point_index
                points.append(point)
            deferred.append((position, sim_config, placement, point_index, first))

        if not deferred:
            return results  # type: ignore[return-value]

        batch_started = time.perf_counter()
        batch_results = simulate_batch(points)
        self.stats.sim_seconds += time.perf_counter() - batch_started

        for position, sim_config, placement, point_index, first in deferred:
            sim_result = batch_results[point_index]
            point = points[point_index]
            if first:
                # First occurrence of this simulation point: insert the
                # batched result into the cache (booked as the miss an
                # unbatched run would have taken).
                self.sim_cache.store_result(
                    point[0], point[1], point[2], sim_result
                )
            else:
                # A later duplicate of an earlier point in this batch: an
                # unbatched run answers it from the cache, and so does this
                # one (the first occurrence was inserted above).
                self.sim_cache.lookup(point[0], point[1], point[2])
                self.stats.sim_cache_hits += 1
            results[position] = self._result_point(
                requests[position], sim_config, placement, sim_result
            )
        return results  # type: ignore[return-value]
