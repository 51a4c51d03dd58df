"""Theoretical lower bounds on factory latency and volume.

The "Theoretical Lower Bound" curves of Fig. 7 and the "Critical" row of
Table I use the circuit's dependency critical path: no mapping, however
clever, can execute the schedule faster than its longest chain of dependent
gates.  The corresponding volume lower bound multiplies that latency by the
minimum logical area a factory of the given capacity needs (its logical
qubit count).
"""

from __future__ import annotations

import functools
from typing import Dict, Optional

from ..circuits.dag import critical_path_length
from ..distillation.block_code import FactorySpec, ReusePolicy, build_factory


def circuit_lower_bound(circuit_or_gates, durations: Optional[dict] = None) -> int:
    """Critical-path latency (cycles) of any circuit.

    The longest chain of dependent gates, weighted by gate duration: the
    fastest any mapping could possibly run the schedule, since dependent
    gates can never overlap regardless of where their qubits sit.
    ``durations`` defaults to the simulator's cycle model
    (:data:`~repro.circuits.gates.DEFAULT_DURATIONS`), so the bound is
    directly comparable to :func:`repro.routing.simulate` latencies.
    """
    return critical_path_length(circuit_or_gates, durations)


def factory_latency_lower_bound(
    spec: FactorySpec, durations: Optional[dict] = None
) -> int:
    """Critical-path latency of a block-code factory of the given spec.

    Barriers are omitted (they only add dependencies), and the no-reuse
    policy is used so that no false dependency inflates the bound — this is
    the most permissive schedule the factory could possibly follow.  The
    bound is a pure function of ``(spec, durations)``, so it is memoized:
    an evaluation pipeline asks for it once per data point.
    """
    key = None if durations is None else frozenset(durations.items())
    return _cached_latency_lower_bound(spec, key)


@functools.lru_cache(maxsize=256)
def _cached_latency_lower_bound(
    spec: FactorySpec, durations: Optional[frozenset]
) -> int:
    factory = build_factory(
        spec, reuse_policy=ReusePolicy.NO_REUSE, barriers_between_rounds=False
    )
    return critical_path_length(
        factory.circuit, None if durations is None else dict(durations)
    )


def factory_area_lower_bound(spec: FactorySpec) -> int:
    """Minimum logical area of the factory: the qubits of its largest round.

    A round needs all of its modules live at once (each module holds
    ``5k + 13`` logical qubits including the raw states it is absorbing), and
    rounds can in principle reuse each other's space, so the largest round
    sets the floor.
    """
    per_module = 5 * spec.k + 13
    return max(
        spec.modules_in_round(round_index) * per_module
        for round_index in range(1, spec.levels + 1)
    )


def factory_volume_lower_bound(
    spec: FactorySpec, durations: Optional[dict] = None
) -> int:
    """Critical space-time volume: latency bound times area bound."""
    return factory_latency_lower_bound(spec, durations) * factory_area_lower_bound(spec)


def lower_bound_summary(spec: FactorySpec) -> Dict[str, int]:
    """Latency, area and volume lower bounds for a spec as a dictionary."""
    latency = factory_latency_lower_bound(spec)
    area = factory_area_lower_bound(spec)
    return {"latency": latency, "area": area, "volume": latency * area}
