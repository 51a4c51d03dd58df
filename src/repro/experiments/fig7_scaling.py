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

import functools
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..api.executor import SweepPlan
from ..api.experiments import (
    SEED_PARAM,
    WORKERS_PARAM,
    ParamSpec,
    register_experiment,
)
from ..api.pipeline import EvaluationRequest
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


#: The mappers compared with the lower bound.
METHODS = ("force_directed", "graph_partition")


def sweep_requests(
    levels: int,
    capacities: Optional[Sequence[int]] = None,
    seed: int = 0,
    fd_config: Optional[ForceDirectedConfig] = None,
    sim_config: Optional[SimulatorConfig] = None,
) -> Tuple[EvaluationRequest, ...]:
    """FD and GP at every capacity of one factory level, capacity-major."""
    if capacities is None:
        capacities = (
            DEFAULT_SINGLE_LEVEL_CAPACITIES
            if levels == 1
            else DEFAULT_TWO_LEVEL_CAPACITIES
        )
    return SweepPlan.from_grid(
        METHODS,
        capacities,
        levels=levels,
        seeds=(seed,),
        fd_config=fd_config,
        sim_config=sim_config,
    ).requests


def assemble(
    evaluations: List[FactoryEvaluation], levels: int, **params: Any
) -> Fig7Result:
    """The latency series of one level from its evaluations."""
    return Fig7Result(levels=levels, evaluations=evaluations)


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

_FIG7A = register_experiment(
    "fig7a",
    requests=functools.partial(sweep_requests, levels=1),
    assemble=functools.partial(assemble, levels=1),
    formatter=format_result,
    params=(_CAPACITIES_PARAM, SEED_PARAM, WORKERS_PARAM),
    description="Fig. 7a: single-level FD/GP latency vs the lower bound",
)
_FIG7B = register_experiment(
    "fig7b",
    requests=functools.partial(sweep_requests, levels=2),
    assemble=functools.partial(assemble, levels=2),
    formatter=format_result,
    params=(_CAPACITIES_PARAM, SEED_PARAM, WORKERS_PARAM),
    description="Fig. 7b: two-level FD/GP latency vs the lower bound",
)

#: Fig. 7a: single-level factories, FD and GP versus the lower bound
#: (keyword arguments of :func:`sweep_requests` bar ``levels``, plus
#: ``workers``).
run_single_level = _FIG7A.run
#: Fig. 7b: the same comparison on two-level factories.
run_two_level = _FIG7B.run
