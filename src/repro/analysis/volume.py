"""Area / latency / volume accounting for evaluated mappings.

The paper reports three quantities per factory configuration (Fig. 10,
Table I): circuit latency in cycles, circuit area in logical qubits, and
their product, the space-time ("quantum") volume:

* **latency** — the simulator's completion time;
* **area** — the bounding-box area of the tiles the mapping actually uses
  (a compact layout is credited for its compactness; a mapping that spreads
  qubits over a huge grid pays for the space its braids roam over);
* **volume** — area times latency.

This module defines the area; :class:`~repro.api.pipeline.Pipeline`
multiplies it by the simulated latency into each reported data point.
"""

from __future__ import annotations

from typing import Dict

from ..mapping.placement import Placement


def occupied_bounding_box(placement: Placement) -> Dict[str, int]:
    """Tight bounding box of the occupied cells.

    Returns ``{"row0", "col0", "row1", "col1", "height", "width", "area"}``
    with half-open upper bounds.  An empty placement has zero area.
    """
    if not placement.positions:
        return {
            "row0": 0,
            "col0": 0,
            "row1": 0,
            "col1": 0,
            "height": 0,
            "width": 0,
            "area": 0,
        }
    rows = [cell[0] for cell in placement.positions.values()]
    cols = [cell[1] for cell in placement.positions.values()]
    row0, row1 = min(rows), max(rows) + 1
    col0, col1 = min(cols), max(cols) + 1
    return {
        "row0": row0,
        "col0": col0,
        "row1": row1,
        "col1": col1,
        "height": row1 - row0,
        "width": col1 - col0,
        "area": (row1 - row0) * (col1 - col0),
    }


def mapping_area(placement: Placement) -> int:
    """The area metric used in all reported results (bounding-box tiles)."""
    return occupied_bounding_box(placement)["area"]
