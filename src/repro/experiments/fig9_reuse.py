"""Experiment EXP-F9ab: qubit reuse versus renaming (Fig. 9a / 9b).

The paper compares, for two-level factories mapped by the linear baseline,
force-directed annealing and graph partitioning, the space-time volume with
qubit reuse (R) against the volume without reuse (NR), reporting the
differential ``(NR - R) / NR``: positive means reuse is better.

The paper's qualitative findings, which this experiment checks:

* linear mapping and graph partitioning benefit from reuse at every
  capacity (positive differential);
* force-directed annealing prefers reuse only for the small factories
  (capacity 4 and 16) and prefers the extra freedom of no-reuse beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..api.experiments import SEED_PARAM, ParamSpec, register_experiment
from ..api.pipeline import EvaluationRequest
from ..api.results import FactoryEvaluation, filter_fields
from ..mapping.force_directed import ForceDirectedConfig
from ..routing.simulator import SimulatorConfig

#: Capacities on the paper's Fig. 9b x-axis.
PAPER_CAPACITIES = (4, 16, 36, 64)
DEFAULT_CAPACITIES = (4, 16)
#: Mapping methods compared in Fig. 9a/9b.
METHODS = ("linear", "force_directed", "graph_partition")


@dataclass(frozen=True)
class ReuseComparison:
    """Reuse vs no-reuse volumes for one (method, capacity) pair."""

    method: str
    capacity: int
    volume_no_reuse: int
    volume_reuse: int

    @property
    def differential(self) -> float:
        """The paper's metric ``(NR - R) / NR``; positive favours reuse."""
        if self.volume_no_reuse == 0:
            return 0.0
        return (self.volume_no_reuse - self.volume_reuse) / self.volume_no_reuse

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of the comparison plus the derived differential."""
        return {
            "method": self.method,
            "capacity": self.capacity,
            "volume_no_reuse": self.volume_no_reuse,
            "volume_reuse": self.volume_reuse,
            "differential": self.differential,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ReuseComparison":
        """Inverse of :meth:`to_dict` (derived keys are ignored)."""
        return cls(**filter_fields(cls, data))


@dataclass(frozen=True)
class Fig9ReuseResult:
    """All reuse comparisons of the experiment."""

    comparisons: List[ReuseComparison]

    def by_method(self) -> Dict[str, Dict[int, ReuseComparison]]:
        table: Dict[str, Dict[int, ReuseComparison]] = {}
        for comparison in self.comparisons:
            table.setdefault(comparison.method, {})[comparison.capacity] = comparison
        return table

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of every reuse comparison."""
        return {"comparisons": [c.to_dict() for c in self.comparisons]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Fig9ReuseResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            comparisons=[
                ReuseComparison.from_dict(c) for c in data.get("comparisons", [])
            ]
        )


def sweep_requests(
    capacities: Optional[Sequence[int]] = None,
    methods: Sequence[str] = METHODS,
    seed: int = 0,
    fd_config: Optional[ForceDirectedConfig] = None,
    sim_config: Optional[SimulatorConfig] = None,
) -> List[EvaluationRequest]:
    """Each method's two-level no-reuse request, then its reuse twin."""
    return [
        EvaluationRequest(
            method=method,
            capacity=capacity,
            levels=2,
            reuse=reuse,
            seed=seed,
            fd_config=fd_config,
            sim_config=sim_config,
        )
        for capacity in (DEFAULT_CAPACITIES if capacities is None else capacities)
        for method in methods
        for reuse in (False, True)
    ]


def assemble(evaluations: List[FactoryEvaluation], **params: Any) -> Fig9ReuseResult:
    """Pair every no-reuse evaluation with the reuse twin that follows it."""
    return Fig9ReuseResult(
        comparisons=[
            ReuseComparison(
                method=no_reuse.method,
                capacity=no_reuse.capacity,
                volume_no_reuse=no_reuse.volume,
                volume_reuse=reuse.volume,
            )
            for no_reuse, reuse in zip(evaluations[::2], evaluations[1::2])
        ]
    )


def format_result(result: Fig9ReuseResult) -> str:
    """Table of volume differentials, one row per method."""
    table = result.by_method()
    capacities = sorted({c.capacity for c in result.comparisons})
    lines = ["Fig. 9a/9b — qubit reuse volume differential (NR - R) / NR"]
    header = ["method".ljust(20)] + [f"K={c}".rjust(10) for c in capacities]
    lines.append("".join(header))
    for method, row in table.items():
        cells = [method.ljust(20)]
        for capacity in capacities:
            comparison = row.get(capacity)
            cells.append(
                (
                    "-"
                    if comparison is None
                    else f"{comparison.differential:+.3f}"
                ).rjust(10)
            )
        lines.append("".join(cells))
    return "\n".join(lines)


_FIG9AB = register_experiment(
    "fig9ab",
    requests=sweep_requests,
    assemble=assemble,
    formatter=format_result,
    params=(
        ParamSpec(
            "capacities", "int_list", help="comma-separated two-level capacities"
        ),
        SEED_PARAM,
    ),
    description="Fig. 9a/9b: qubit reuse vs renaming volume differentials",
)

#: Evaluate every method with and without qubit reuse on two-level
#: factories (keyword arguments of :func:`sweep_requests`).
run = _FIG9AB.run
