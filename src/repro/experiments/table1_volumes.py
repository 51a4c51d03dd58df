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

from ..api.experiments import (
    SEED_PARAM,
    WORKERS_PARAM,
    ParamSpec,
    register_experiment,
)
from ..api.pipeline import EvaluationRequest
from ..api.results import FactoryEvaluation, int_keyed, str_keyed
from ..mapping.force_directed import ForceDirectedConfig
from ..mapping.stitching import StitchingConfig
from ..routing.simulator import SimulatorConfig

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


def sweep_requests(
    levels: int,
    capacities: Optional[Sequence[int]] = None,
    seed: int = 0,
    fd_config: Optional[ForceDirectedConfig] = None,
    stitch_config: Optional[StitchingConfig] = None,
    sim_config: Optional[SimulatorConfig] = None,
) -> List[EvaluationRequest]:
    """One request per non-blank cell of one level-block of Table I.

    Capacity-major, then in :data:`ROW_ORDER`.
    """
    if capacities is None:
        capacities = (
            DEFAULT_LEVEL1_CAPACITIES if levels == 1 else DEFAULT_LEVEL2_CAPACITIES
        )
    cells = (
        _row_request(row, capacity, levels, seed, fd_config, stitch_config, sim_config)
        for capacity in capacities
        for row in ROW_ORDER
    )
    return [request for request in cells if request is not None]


def _row(evaluation: FactoryEvaluation) -> str:
    """The Table I row an evaluation fills."""
    if evaluation.method == "linear":
        return "linear_reuse" if evaluation.reuse else "linear_no_reuse"
    return evaluation.method


def assemble(
    evaluations: List[FactoryEvaluation], levels: int, **params: Any
) -> Table1Result:
    """The level-block of Table I from its cells' evaluations.

    The first row, ``critical``, is each capacity's lower-bound volume.
    """
    volumes: Dict[str, Dict[int, float]] = {"critical": {}}
    for evaluation in evaluations:
        volumes["critical"][evaluation.capacity] = float(evaluation.critical_volume)
        volumes.setdefault(_row(evaluation), {})[evaluation.capacity] = float(
            evaluation.volume
        )
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

#: The two registered level-blocks of Table I, by factory level.
_EXPERIMENTS = {
    levels: register_experiment(
        f"table1-level{levels}",
        requests=functools.partial(sweep_requests, levels=levels),
        assemble=functools.partial(assemble, levels=levels),
        formatter=format_result,
        params=(_CAPACITIES_PARAM, SEED_PARAM, WORKERS_PARAM),
        description=f"Table I: {label} quantum volumes by procedure",
    )
    for levels, label in ((1, "single-level"), (2, "two-level"))
}


def run(levels: int, **params: Any) -> Table1Result:
    """Regenerate one level-block of Table I.

    Takes the keyword arguments of :func:`sweep_requests` plus ``workers``,
    and runs the registered experiment of that level.
    """
    if levels not in _EXPERIMENTS:
        raise ValueError("Table I covers one- and two-level factories only")
    return _EXPERIMENTS[levels].run(**params)
