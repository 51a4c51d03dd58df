"""Experiment EXP-F7: FD / GP latency versus the theoretical lower bound (Fig. 7).

Fig. 7a plots the simulated latency of single-level factories mapped by
force-directed annealing and by graph partitioning against the circuit's
critical-path lower bound; both techniques track the bound closely.  Fig. 7b
repeats the comparison for two-level factories, where the gap to the bound
widens because of the inter-round permutation congestion.

The qualitative claims this experiment checks:

* single level — both mappers stay within a small factor of the bound;
* two level — the gap grows with capacity, and graph partitioning (a global
  technique) tracks the bound better than the local force-directed procedure
  at larger capacities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..api.experiments import (
    SEED_PARAM,
    WORKERS_PARAM,
    ParamSpec,
    register_experiment,
)
from ..api.pipeline import capacity_sweep
from ..api.results import (
    FactoryEvaluation,
    evaluation_series_from_dict,
    evaluation_series_to_dict,
)
from ..mapping.force_directed import ForceDirectedConfig
from ..routing.simulator import SimulatorConfig

#: Capacities of the paper's Fig. 7a x-axis (single-level factories).
PAPER_SINGLE_LEVEL_CAPACITIES = (2, 4, 6, 8, 12, 16, 20)
#: Capacities of the paper's Fig. 7b x-axis (two-level factories).
PAPER_TWO_LEVEL_CAPACITIES = (4, 16, 36, 64)

#: Reduced sweeps used by default so the experiment completes quickly.
DEFAULT_SINGLE_LEVEL_CAPACITIES = (2, 4, 6, 8, 12, 16, 20)
DEFAULT_TWO_LEVEL_CAPACITIES = (4, 16)


@dataclass(frozen=True)
class Fig7Result:
    """Latency-vs-lower-bound series for one factory level."""

    levels: int
    evaluations: List[FactoryEvaluation]

    def series(self) -> Dict[str, Dict[int, int]]:
        """``{method: {capacity: latency}}`` plus the lower-bound series."""
        table: Dict[str, Dict[int, int]] = {"lower_bound": {}}
        for evaluation in self.evaluations:
            table.setdefault(evaluation.method, {})[evaluation.capacity] = (
                evaluation.latency
            )
            table["lower_bound"][evaluation.capacity] = evaluation.critical_latency
        return table

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of the per-configuration evaluations."""
        return evaluation_series_to_dict(self.levels, self.evaluations)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Fig7Result":
        """Inverse of :meth:`to_dict`."""
        levels, evaluations = evaluation_series_from_dict(data)
        return cls(levels=levels, evaluations=evaluations)


def run_single_level(
    capacities: Optional[Sequence[int]] = None,
    seed: int = 0,
    fd_config: Optional[ForceDirectedConfig] = None,
    sim_config: Optional[SimulatorConfig] = None,
    workers: int = 1,
) -> Fig7Result:
    """Fig. 7a: single-level factories, FD and GP versus the lower bound."""
    capacities = tuple(capacities or DEFAULT_SINGLE_LEVEL_CAPACITIES)
    evaluations = capacity_sweep(
        methods=("force_directed", "graph_partition"),
        capacities=capacities,
        levels=1,
        seed=seed,
        fd_config=fd_config,
        sim_config=sim_config,
        workers=workers,
    )
    return Fig7Result(levels=1, evaluations=evaluations)


def run_two_level(
    capacities: Optional[Sequence[int]] = None,
    seed: int = 0,
    fd_config: Optional[ForceDirectedConfig] = None,
    sim_config: Optional[SimulatorConfig] = None,
    workers: int = 1,
) -> Fig7Result:
    """Fig. 7b: two-level factories, FD and GP versus the lower bound."""
    capacities = tuple(capacities or DEFAULT_TWO_LEVEL_CAPACITIES)
    evaluations = capacity_sweep(
        methods=("force_directed", "graph_partition"),
        capacities=capacities,
        levels=2,
        seed=seed,
        fd_config=fd_config,
        sim_config=sim_config,
        workers=workers,
    )
    return Fig7Result(levels=2, evaluations=evaluations)


def format_result(result: Fig7Result) -> str:
    """Fixed-width table of the latency series."""
    series = result.series()
    capacities = sorted(series["lower_bound"].keys())
    lines = [f"Fig. 7 — latency vs lower bound (levels={result.levels})"]
    header = ["method".ljust(20)] + [f"K={c}".rjust(10) for c in capacities]
    lines.append("".join(header))
    for method in ("force_directed", "graph_partition", "lower_bound"):
        row = [method.ljust(20)]
        for capacity in capacities:
            value = series.get(method, {}).get(capacity)
            row.append(("-" if value is None else str(value)).rjust(10))
        lines.append("".join(row))
    return "\n".join(lines)


_CAPACITIES_PARAM = ParamSpec(
    "capacities", "int_list", help="comma-separated factory capacities to sweep"
)

register_experiment(
    "fig7a",
    run_single_level,
    formatter=format_result,
    params=(_CAPACITIES_PARAM, SEED_PARAM, WORKERS_PARAM),
    description="Fig. 7a: single-level FD/GP latency vs the lower bound",
)
register_experiment(
    "fig7b",
    run_two_level,
    formatter=format_result,
    params=(_CAPACITIES_PARAM, SEED_PARAM, WORKERS_PARAM),
    description="Fig. 7b: two-level FD/GP latency vs the lower bound",
)
