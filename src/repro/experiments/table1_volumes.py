"""Experiment EXP-T1: quantum volumes of every factory design (Table I).

Table I of the paper lists the space-time volumes achieved by each
optimisation procedure — Random, the linear baseline without and with qubit
reuse (Line NR / Line R), force-directed annealing (FD), graph partitioning
(GP), hierarchical stitching (HS) — and the critical (lower-bound) volume,
for single-level factories of capacity 2..24 and two-level factories of
capacity 4..100.

The paper's absolute values (reproduced below as reference constants) were
obtained on the authors' simulator and cycle model; this experiment
regenerates the same table with this repository's simulator.  The shape that
must hold: Random is the worst, Line/FD/GP sit in between, HS gives the
lowest volume for every two-level capacity, and everything stays above the
critical bound.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..api.executor import SweepExecutor, SweepPlan
from ..api.experiments import (
    SEED_PARAM,
    WORKERS_PARAM,
    ParamSpec,
    register_experiment,
)
from ..api.pipeline import EvaluationRequest, evaluate_factory_mapping
from ..api.results import FactoryEvaluation, int_keyed, str_keyed
from ..distillation.block_code import FactorySpec
from ..mapping.force_directed import ForceDirectedConfig
from ..mapping.stitching import StitchingConfig
from ..routing.simulator import SimulatorConfig
from ..scheduling.critical_path import (
    factory_area_lower_bound,
    factory_latency_lower_bound,
)

#: Table I of the paper, level-1 block (capacities 2, 4, 8, 10, 24).
PAPER_LEVEL1_VOLUMES = {
    "random": {2: 1.11e4, 4: 1.82e4, 8: 5.43e4, 10: 6.40e4, 24: 2.70e5},
    "linear_no_reuse": {2: 6.53e3, 4: 1.10e4, 8: 2.53e4, 10: 2.94e4, 24: 1.29e5},
    "linear_reuse": {2: 6.53e3, 4: 1.10e4, 8: 2.53e4, 10: 2.94e4, 24: 1.29e5},
    "force_directed": {2: 6.30e3, 4: 1.08e4, 8: 2.53e4, 10: 2.88e4, 24: 1.21e5},
    "graph_partition": {2: 6.73e3, 4: 1.23e4, 8: 2.91e4, 10: 3.33e4, 24: 1.48e5},
    "critical": {2: 6.28e3, 4: 1.07e4, 8: 2.27e4, 10: 3.03e4, 24: 1.12e5},
}

#: Table I of the paper, level-2 block (capacities 4, 16, 36, 64, 100).
PAPER_LEVEL2_VOLUMES = {
    "linear_no_reuse": {4: 3.68e5, 16: 1.19e6, 36: 4.19e6, 64: 1.25e7, 100: 3.34e7},
    "linear_reuse": {4: 3.55e5, 16: 1.15e6, 36: 3.80e6, 64: 1.22e7, 100: 2.53e7},
    "force_directed": {4: 3.22e5, 16: 1.15e6, 36: 3.72e6, 64: 9.45e6, 100: 1.98e7},
    "graph_partition": {4: 3.48e5, 16: 9.41e5, 36: 2.24e6, 64: 4.45e6, 100: 8.17e6},
    "hierarchical_stitching": {
        4: 2.32e5,
        16: 7.93e5,
        36: 1.80e6,
        64: 4.06e6,
        100: 5.93e6,
    },
    "critical": {4: 1.82e5, 16: 4.48e5, 36: 8.85e5, 64: 1.53e6, 100: 2.43e6},
}

#: Row order of the regenerated table (matching Table I's procedure order).
ROW_ORDER = (
    "random",
    "linear_no_reuse",
    "linear_reuse",
    "force_directed",
    "graph_partition",
    "hierarchical_stitching",
    "critical",
)

PAPER_LEVEL1_CAPACITIES = (2, 4, 8, 10, 24)
PAPER_LEVEL2_CAPACITIES = (4, 16, 36, 64, 100)
DEFAULT_LEVEL1_CAPACITIES = (2, 4, 8, 10, 24)
DEFAULT_LEVEL2_CAPACITIES = (4, 16)


@dataclass(frozen=True)
class Table1Result:
    """The regenerated Table I: ``volumes[row][capacity]`` in qubit-cycles."""

    levels: int
    volumes: Dict[str, Dict[int, float]]
    evaluations: List[FactoryEvaluation]

    def rows(self) -> Sequence[str]:
        return [row for row in ROW_ORDER if row in self.volumes]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict (capacity keys stringified for JSON objects)."""
        return {
            "levels": self.levels,
            "volumes": {
                row: str_keyed(by_capacity)
                for row, by_capacity in self.volumes.items()
            },
            "evaluations": [e.to_dict() for e in self.evaluations],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Table1Result":
        """Inverse of :meth:`to_dict` (capacity keys back to ints)."""
        return cls(
            levels=int(data["levels"]),
            volumes={
                row: int_keyed(by_capacity)
                for row, by_capacity in data.get("volumes", {}).items()
            },
            evaluations=[
                FactoryEvaluation.from_dict(e) for e in data.get("evaluations", [])
            ],
        )


def _row_request(
    row: str,
    capacity: int,
    levels: int,
    seed: int,
    fd_config: Optional[ForceDirectedConfig],
    stitch_config: Optional[StitchingConfig],
    sim_config: Optional[SimulatorConfig],
) -> Optional[EvaluationRequest]:
    """The evaluation request of one Table I cell; ``None`` for blank cells."""
    if row == "critical":
        return None
    if row == "random" and levels != 1:
        # The paper only reports the random baseline for single-level
        # factories (Table I leaves the level-2 cells blank).
        return None
    if row == "hierarchical_stitching" and levels == 1:
        # HS is a multi-level technique; Table I leaves level-1 cells blank.
        return None
    method = {
        "random": "random",
        "linear_no_reuse": "linear",
        "linear_reuse": "linear",
        "force_directed": "force_directed",
        "graph_partition": "graph_partition",
        "hierarchical_stitching": "hierarchical_stitching",
    }[row]
    return EvaluationRequest(
        method=method,
        capacity=capacity,
        levels=levels,
        reuse=row == "linear_reuse",
        seed=seed,
        fd_config=fd_config,
        stitch_config=stitch_config,
        sim_config=sim_config,
    )


def run(
    levels: int,
    capacities: Optional[Sequence[int]] = None,
    seed: int = 0,
    fd_config: Optional[ForceDirectedConfig] = None,
    stitch_config: Optional[StitchingConfig] = None,
    sim_config: Optional[SimulatorConfig] = None,
    workers: int = 1,
) -> Table1Result:
    """Regenerate one level-block of Table I.

    The table is expanded into an explicit request list first (one request
    per non-blank cell); with ``workers > 1`` those requests run across a
    :class:`~repro.api.executor.SweepExecutor` process pool, producing the
    identical table in the identical order.
    """
    if levels not in (1, 2):
        raise ValueError("Table I covers one- and two-level factories only")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if capacities is None:
        capacities = (
            DEFAULT_LEVEL1_CAPACITIES if levels == 1 else DEFAULT_LEVEL2_CAPACITIES
        )
    capacities = tuple(capacities)
    sim_config = sim_config or SimulatorConfig()

    volumes: Dict[str, Dict[int, float]] = {}
    cells: List[tuple] = []
    for capacity in capacities:
        spec = FactorySpec.from_capacity(capacity, levels)
        critical = factory_latency_lower_bound(
            spec, dict(sim_config.durations)
        ) * factory_area_lower_bound(spec)
        volumes.setdefault("critical", {})[capacity] = float(critical)
        for row in ROW_ORDER:
            request = _row_request(
                row, capacity, levels, seed, fd_config, stitch_config, sim_config
            )
            if request is not None:
                cells.append((row, capacity, request))

    if workers > 1:
        plan = SweepPlan.from_requests(request for _, _, request in cells)
        results = SweepExecutor(workers=workers, sim_config=sim_config).run(plan)
        cell_evaluations = results.evaluations
    else:
        cell_evaluations = [
            evaluate_factory_mapping(
                request.method,
                request.capacity,
                levels=request.levels,
                reuse=request.reuse,
                seed=request.seed,
                fd_config=request.fd_config,
                stitch_config=request.stitch_config,
                sim_config=request.sim_config,
            )
            for _, _, request in cells
        ]

    evaluations: List[FactoryEvaluation] = []
    for (row, capacity, _), evaluation in zip(cells, cell_evaluations):
        volumes.setdefault(row, {})[capacity] = float(evaluation.volume)
        evaluations.append(evaluation)
    return Table1Result(levels=levels, volumes=volumes, evaluations=evaluations)


def paper_reference(levels: int) -> Dict[str, Dict[int, float]]:
    """The paper's Table I values for the requested level block."""
    return PAPER_LEVEL1_VOLUMES if levels == 1 else PAPER_LEVEL2_VOLUMES


def format_result(result: Table1Result) -> str:
    """Fixed-width rendering of the regenerated table."""
    capacities = sorted(
        {capacity for row in result.volumes.values() for capacity in row}
    )
    lines = [f"Table I — quantum volumes (level {result.levels})"]
    header = ["procedure".ljust(26)] + [f"K={c}".rjust(12) for c in capacities]
    lines.append("".join(header))
    for row in result.rows():
        cells = [row.ljust(26)]
        for capacity in capacities:
            value = result.volumes[row].get(capacity)
            cells.append(("-" if value is None else f"{value:.3g}").rjust(12))
        lines.append("".join(cells))
    return "\n".join(lines)


_CAPACITIES_PARAM = ParamSpec(
    "capacities", "int_list", help="comma-separated factory capacities to sweep"
)

register_experiment(
    "table1-level1",
    functools.partial(run, levels=1),
    formatter=format_result,
    params=(_CAPACITIES_PARAM, SEED_PARAM, WORKERS_PARAM),
    description="Table I: single-level quantum volumes by procedure",
)
register_experiment(
    "table1-level2",
    functools.partial(run, levels=2),
    formatter=format_result,
    params=(_CAPACITIES_PARAM, SEED_PARAM, WORKERS_PARAM),
    description="Table I: two-level quantum volumes by procedure",
)
