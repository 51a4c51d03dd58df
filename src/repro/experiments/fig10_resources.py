"""Experiment EXP-F10: factory resource requirements (Fig. 10a-f).

Fig. 10 reports, for single-level factories (left column) and two-level
factories (right column), the latency, area and space-time volume achieved by
each mapping procedure as the factory capacity grows.  The qualitative shape
this experiment reproduces:

* single level (10a/10b/10e) — the linear baseline is already near optimal;
  force-directed gives a small improvement; graph partitioning is competitive
  but does not beat the hand layout;
* two level (10c/10d/10f) — the linear baseline deteriorates, graph
  partitioning overtakes it as the permutation step starts to dominate, and
  hierarchical stitching achieves the lowest volume of all procedures (the
  paper's headline 5.64x reduction at capacity 100).
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
from ..mapping.stitching import StitchingConfig
from ..routing.simulator import SimulatorConfig

#: Capacities of the paper's single-level sweeps (Fig. 10a/10b/10e).
PAPER_SINGLE_LEVEL_CAPACITIES = (2, 4, 6, 8, 12, 16, 20, 24)
#: Capacities of the paper's two-level sweeps (Fig. 10c/10d/10f).
PAPER_TWO_LEVEL_CAPACITIES = (4, 16, 36, 64, 100)

DEFAULT_SINGLE_LEVEL_CAPACITIES = (2, 4, 6, 8, 12, 16, 20, 24)
DEFAULT_TWO_LEVEL_CAPACITIES = (4, 16)

SINGLE_LEVEL_METHODS = ("linear", "force_directed", "graph_partition")
TWO_LEVEL_METHODS = (
    "linear",
    "force_directed",
    "graph_partition",
    "hierarchical_stitching",
)

#: Headline result of the paper: volume reduction of hierarchical stitching
#: over the linear (no-reuse) baseline for the capacity-100 two-level factory.
PAPER_HEADLINE_REDUCTION = 5.64


@dataclass(frozen=True)
class Fig10Result:
    """A latency/area/volume sweep for one factory level."""

    levels: int
    evaluations: List[FactoryEvaluation]

    def series(self, value: str) -> Dict[str, Dict[int, int]]:
        """``{method: {capacity: value}}`` for ``value`` in latency/area/volume."""
        if value not in ("latency", "area", "volume"):
            raise ValueError(f"unknown value field {value!r}")
        table: Dict[str, Dict[int, int]] = {}
        for evaluation in self.evaluations:
            table.setdefault(evaluation.method, {})[evaluation.capacity] = getattr(
                evaluation, value
            )
        return table

    def volume_reduction(
        self,
        capacity: int,
        baseline: str = "linear",
        best: str = "hierarchical_stitching",
    ) -> float:
        """Volume of ``baseline`` divided by volume of ``best`` at ``capacity``."""
        volumes = self.series("volume")
        baseline_volume = volumes[baseline][capacity]
        best_volume = volumes[best][capacity]
        if best_volume == 0:
            return float("inf")
        return baseline_volume / best_volume

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of the per-configuration evaluations."""
        return evaluation_series_to_dict(self.levels, self.evaluations)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Fig10Result":
        """Inverse of :meth:`to_dict`."""
        levels, evaluations = evaluation_series_from_dict(data)
        return cls(levels=levels, evaluations=evaluations)


def run_single_level(
    capacities: Optional[Sequence[int]] = None,
    seed: int = 0,
    fd_config: Optional[ForceDirectedConfig] = None,
    sim_config: Optional[SimulatorConfig] = None,
    workers: int = 1,
) -> Fig10Result:
    """Fig. 10a/10b/10e: single-level latency, area and volume sweeps."""
    capacities = tuple(capacities or DEFAULT_SINGLE_LEVEL_CAPACITIES)
    evaluations = capacity_sweep(
        methods=SINGLE_LEVEL_METHODS,
        capacities=capacities,
        levels=1,
        seed=seed,
        fd_config=fd_config,
        sim_config=sim_config,
        workers=workers,
    )
    return Fig10Result(levels=1, evaluations=evaluations)


def run_two_level(
    capacities: Optional[Sequence[int]] = None,
    seed: int = 0,
    fd_config: Optional[ForceDirectedConfig] = None,
    stitch_config: Optional[StitchingConfig] = None,
    sim_config: Optional[SimulatorConfig] = None,
    workers: int = 1,
) -> Fig10Result:
    """Fig. 10c/10d/10f: two-level latency, area and volume sweeps."""
    capacities = tuple(capacities or DEFAULT_TWO_LEVEL_CAPACITIES)
    evaluations = capacity_sweep(
        methods=TWO_LEVEL_METHODS,
        capacities=capacities,
        levels=2,
        seed=seed,
        fd_config=fd_config,
        stitch_config=stitch_config,
        sim_config=sim_config,
        workers=workers,
    )
    return Fig10Result(levels=2, evaluations=evaluations)


def format_result(result: Fig10Result) -> str:
    """Three stacked tables (latency, area, volume) for the sweep."""
    lines: List[str] = [f"Fig. 10 — factory resources (levels={result.levels})"]
    capacities = sorted({e.capacity for e in result.evaluations})
    for value in ("latency", "area", "volume"):
        series = result.series(value)
        lines.append("")
        lines.append(value)
        header = ["method".ljust(24)] + [f"K={c}".rjust(12) for c in capacities]
        lines.append("".join(header))
        for method, row in series.items():
            cells = [method.ljust(24)]
            for capacity in capacities:
                entry = row.get(capacity)
                cells.append(("-" if entry is None else f"{entry}").rjust(12))
            lines.append("".join(cells))
    return "\n".join(lines)


_CAPACITIES_PARAM = ParamSpec(
    "capacities", "int_list", help="comma-separated factory capacities to sweep"
)

register_experiment(
    "fig10-single",
    run_single_level,
    formatter=format_result,
    params=(_CAPACITIES_PARAM, SEED_PARAM, WORKERS_PARAM),
    description="Fig. 10a/10b/10e: single-level latency/area/volume sweeps",
)
register_experiment(
    "fig10-two",
    run_two_level,
    formatter=format_result,
    params=(_CAPACITIES_PARAM, SEED_PARAM, WORKERS_PARAM),
    description="Fig. 10c/10d/10f: two-level latency/area/volume sweeps",
)
