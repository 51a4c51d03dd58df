"""Experiment EXP-F9cd: permutation-step latency with intermediate hops (Fig. 9c / 9d).

The inter-round permutation step of a two-level factory is isolated (only the
injection braids that move a previous round's outputs into the next round's
modules are simulated) and executed under four hop-routing policies:

* **no hop** — every permutation braid routes directly;
* **randomized hop** — Valiant-style routing through a uniformly random
  intermediate destination;
* **annealed random hop** — random initial hops, then annealed with the
  force-directed objectives;
* **annealed midpoint hop** — hops initialised at each braid's midpoint and
  annealed (the paper's best variant, reported to cut permutation latency by
  about 1.3x over no hops).

The qualitative claim checked: annealed hops beat the no-hop baseline, and
pure random hops help little.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..api.experiments import SEED_PARAM, ParamSpec, register_experiment
from ..api.pipeline import RequestError
from ..api.results import filter_fields
from ..distillation.block_code import FactorySpec, ReusePolicy
from ..mapping.stitching import (
    HOP_MODES,
    StitchingConfig,
    hierarchical_stitching,
    optimize_permutation_hops,
    permutation_gate_indices,
)
from ..routing.simulator import SimulatorConfig, simulate

#: Capacities on the paper's Fig. 9d x-axis.
PAPER_CAPACITIES = (4, 16, 36, 64)
DEFAULT_CAPACITIES = (4, 16)

#: Speedup of annealed midpoint hops over no hops reported by the paper.
PAPER_BEST_SPEEDUP = 1.3


@dataclass(frozen=True)
class PermutationLatency:
    """Permutation-step latency for one (capacity, hop mode) pair."""

    capacity: int
    hop_mode: str
    latency: int
    braids: int

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of the measurement."""
        return {
            "capacity": self.capacity,
            "hop_mode": self.hop_mode,
            "latency": self.latency,
            "braids": self.braids,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PermutationLatency":
        """Inverse of :meth:`to_dict`."""
        return cls(**filter_fields(cls, data))


@dataclass(frozen=True)
class Fig9PermutationResult:
    """All permutation-step measurements of the experiment."""

    measurements: List[PermutationLatency]

    def by_mode(self) -> Dict[str, Dict[int, int]]:
        """``{hop_mode: {capacity: latency}}``."""
        table: Dict[str, Dict[int, int]] = {}
        for measurement in self.measurements:
            table.setdefault(measurement.hop_mode, {})[measurement.capacity] = (
                measurement.latency
            )
        return table

    def speedup(self, capacity: int, mode: str = "annealed_midpoint") -> float:
        """Latency ratio of the no-hop baseline over ``mode`` at ``capacity``."""
        table = self.by_mode()
        baseline = table["none"][capacity]
        optimized = table[mode][capacity]
        if optimized == 0:
            return float("inf")
        return baseline / optimized

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of every measurement."""
        return {"measurements": [m.to_dict() for m in self.measurements]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Fig9PermutationResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            measurements=[
                PermutationLatency.from_dict(m) for m in data.get("measurements", [])
            ]
        )


def _permutation_subcircuit(factory, placement, hops):
    """Extract the permutation braids and re-key their hops to local indices."""
    indices = permutation_gate_indices(factory)
    gates = [factory.circuit[i] for i in indices]
    local_hops = {
        local: hops[global_index]
        for local, global_index in enumerate(indices)
        if global_index in hops
    }
    return gates, local_hops


def run(
    capacities: Optional[Sequence[int]] = None,
    hop_modes: Sequence[str] = HOP_MODES,
    seed: int = 0,
    sim_config: Optional[SimulatorConfig] = None,
) -> Fig9PermutationResult:
    """Measure the permutation-step latency for every hop policy.

    Every capacity is checked before anything runs: one with no two-level
    factory raises :class:`~repro.api.pipeline.RequestError` (field
    ``capacities``).
    """
    capacities = DEFAULT_CAPACITIES if capacities is None else capacities
    try:
        specs = [FactorySpec.from_capacity(capacity, 2) for capacity in capacities]
    except ValueError as error:
        raise RequestError(str(error), field="capacities") from error
    sim_config = sim_config or SimulatorConfig()
    measurements: List[PermutationLatency] = []
    for capacity, spec in zip(capacities, specs):
        stitched = hierarchical_stitching(
            spec,
            reuse_policy=ReusePolicy.NO_REUSE,
            config=StitchingConfig(hop_mode="none", seed=seed),
        )
        factory = stitched.factory
        placement = stitched.placement
        for mode in hop_modes:
            hops = optimize_permutation_hops(
                factory,
                placement,
                StitchingConfig(hop_mode=mode, seed=seed),
            )
            gates, local_hops = _permutation_subcircuit(factory, placement, hops)
            config = replace(sim_config, hops=local_hops)
            result = simulate(gates, placement, config)
            measurements.append(
                PermutationLatency(
                    capacity=capacity,
                    hop_mode=mode,
                    latency=result.latency,
                    braids=len(gates),
                )
            )
    return Fig9PermutationResult(measurements=measurements)


def format_result(result: Fig9PermutationResult) -> str:
    """Table of permutation latencies, one row per hop mode."""
    table = result.by_mode()
    capacities = sorted({m.capacity for m in result.measurements})
    lines = ["Fig. 9c/9d — permutation-step latency by hop policy (cycles)"]
    header = ["hop mode".ljust(22)] + [f"K={c}".rjust(10) for c in capacities]
    lines.append("".join(header))
    for mode in HOP_MODES:
        if mode not in table:
            continue
        row = [mode.ljust(22)]
        for capacity in capacities:
            value = table[mode].get(capacity)
            row.append(("-" if value is None else str(value)).rjust(10))
        lines.append("".join(row))
    return "\n".join(lines)


register_experiment(
    "fig9cd",
    run,
    formatter=format_result,
    params=(
        ParamSpec(
            "capacities", "int_list", help="comma-separated two-level capacities"
        ),
        SEED_PARAM,
    ),
    description="Fig. 9c/9d: permutation-step latency under hop policies",
)
