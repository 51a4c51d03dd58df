"""Tabulating capacity sweeps: method names, labels and best-volume tables.

The sweeps themselves run through :mod:`repro.api`
(:class:`~repro.api.SweepExecutor`, :class:`~repro.api.Pipeline`); this
module groups and prints their :class:`~repro.api.FactoryEvaluation`
points the way the figures and tables of the paper's Section VIII do.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from ..api.results import FactoryEvaluation

#: Mapping methods shipped with the toolchain, in the order the paper
#: introduces them.  The authoritative list is the mapper registry
#: (:func:`repro.api.available_mappers`), which also includes any
#: third-party registrations.
MAPPING_METHODS = (
    "random",
    "linear",
    "force_directed",
    "graph_partition",
    "hierarchical_stitching",
)

#: Short labels used in printed tables, matching Table I's row names.
METHOD_LABELS = {
    "random": "Random",
    "linear": "Line",
    "force_directed": "FD",
    "graph_partition": "GP",
    "hierarchical_stitching": "HS",
    "critical": "Critical",
}


def best_volume_by_method(
    results: Iterable[FactoryEvaluation],
) -> Dict[str, Dict[int, FactoryEvaluation]]:
    """Group results as ``{method: {capacity: best evaluation}}``.

    When the same (method, capacity) appears more than once — e.g. with and
    without qubit reuse — the lowest-volume entry wins, which is how the
    paper's final plots pick each procedure's best configuration
    (Section VIII-C.2).
    """
    table: Dict[str, Dict[int, FactoryEvaluation]] = {}
    for result in results:
        by_capacity = table.setdefault(result.method, {})
        existing = by_capacity.get(result.capacity)
        if existing is None or result.volume < existing.volume:
            by_capacity[result.capacity] = result
    return table


def format_sweep_table(
    results: Sequence[FactoryEvaluation], value: str = "volume"
) -> str:
    """Render a sweep as a fixed-width table (capacities as columns).

    ``value`` selects which field to show: ``"volume"``, ``"latency"`` or
    ``"area"``.
    """
    if value not in ("volume", "latency", "area"):
        raise ValueError(f"unknown value field {value!r}")
    capacities = sorted({result.capacity for result in results})
    methods = []
    for result in results:
        if result.method not in methods:
            methods.append(result.method)
    grouped = best_volume_by_method(results)

    header = ["method".ljust(24)] + [
        f"K={capacity}".rjust(12) for capacity in capacities
    ]
    lines = ["".join(header)]
    for method in methods:
        row = [METHOD_LABELS.get(method, method).ljust(24)]
        for capacity in capacities:
            entry = grouped.get(method, {}).get(capacity)
            if entry is None:
                row.append("-".rjust(12))
            else:
                row.append(f"{getattr(entry, value):.3g}".rjust(12))
        lines.append("".join(row))
    return "\n".join(lines)
