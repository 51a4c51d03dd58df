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


def sweep_requests(
    levels: int,
    capacities: Optional[Sequence[int]] = None,
    seed: int = 0,
    fd_config: Optional[ForceDirectedConfig] = None,
    stitch_config: Optional[StitchingConfig] = None,
    sim_config: Optional[SimulatorConfig] = None,
) -> Tuple[EvaluationRequest, ...]:
    """Every procedure of one factory level at every capacity, capacity-major."""
    single = levels == 1
    if capacities is None:
        capacities = (
            DEFAULT_SINGLE_LEVEL_CAPACITIES if single else DEFAULT_TWO_LEVEL_CAPACITIES
        )
    return SweepPlan.from_grid(
        SINGLE_LEVEL_METHODS if single else TWO_LEVEL_METHODS,
        capacities,
        levels=levels,
        seeds=(seed,),
        fd_config=fd_config,
        stitch_config=stitch_config,
        sim_config=sim_config,
    ).requests


def assemble(
    evaluations: List[FactoryEvaluation], levels: int, **params: Any
) -> Fig10Result:
    """The latency/area/volume sweep of one level from its evaluations."""
    return Fig10Result(levels=levels, evaluations=evaluations)


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

_FIG10_SINGLE = register_experiment(
    "fig10-single",
    requests=functools.partial(sweep_requests, levels=1),
    assemble=functools.partial(assemble, levels=1),
    formatter=format_result,
    params=(_CAPACITIES_PARAM, SEED_PARAM, WORKERS_PARAM),
    description="Fig. 10a/10b/10e: single-level latency/area/volume sweeps",
)
_FIG10_TWO = register_experiment(
    "fig10-two",
    requests=functools.partial(sweep_requests, levels=2),
    assemble=functools.partial(assemble, levels=2),
    formatter=format_result,
    params=(_CAPACITIES_PARAM, SEED_PARAM, WORKERS_PARAM),
    description="Fig. 10c/10d/10f: two-level latency/area/volume sweeps",
)

#: Fig. 10a/10b/10e: single-level latency, area and volume sweeps (keyword
#: arguments of :func:`sweep_requests` bar ``levels``, plus ``workers``).
run_single_level = _FIG10_SINGLE.run
#: Fig. 10c/10d/10f: the two-level sweeps.
run_two_level = _FIG10_TWO.run
