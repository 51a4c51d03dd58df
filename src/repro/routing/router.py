"""Braid path construction on the channel lattice.

The router turns a pair (or star) of qubit tiles into a concrete
:class:`~repro.routing.braid.BraidPath`.  The primary route shape is the
rectilinear "around the tiles" path: leave the source tile into an adjacent
channel row, travel along channels (which are never blocked by qubit tiles),
and enter the destination tile from an adjacent channel column.  Several
symmetric variants of this shape are generated so the simulator can pick one
that avoids the cells currently locked by other braids; an optional BFS
detour router finds longer paths through free channels when all rectilinear
candidates are blocked.
"""

from __future__ import annotations

from collections import deque
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .braid import BraidPath
from .mesh import LatticeCell, Mesh


def _straight_segment(start: LatticeCell, end: LatticeCell) -> List[LatticeCell]:
    """Cells of an axis-aligned segment from ``start`` to ``end`` inclusive."""
    (r1, c1), (r2, c2) = start, end
    cells: List[LatticeCell] = []
    if r1 == r2:
        step = 1 if c2 >= c1 else -1
        cells = [(r1, c) for c in range(c1, c2 + step, step)]
    elif c1 == c2:
        step = 1 if r2 >= r1 else -1
        cells = [(r, c1) for r in range(r1, r2 + step, step)]
    else:
        raise ValueError(f"segment {start} -> {end} is not axis aligned")
    return cells


def _clamp(value: int, low: int, high: int) -> int:
    return max(low, min(high, value))


def rectilinear_candidates(
    mesh: Mesh, source: LatticeCell, target: LatticeCell
) -> List[List[LatticeCell]]:
    """Candidate rectilinear channel paths between two tile cells.

    Each candidate leaves the source vertically into an adjacent channel row
    (above or below), runs horizontally along that channel row to the channel
    column adjacent to the target (left or right), runs vertically along that
    channel column, and enters the target.  The transposed (column-first)
    variants are also produced.  All intermediate cells are channel cells, so
    candidates never pass through other qubit tiles.
    """
    (sr, sc), (tr, tc) = source, target
    max_row = mesh.lattice_height - 1
    max_col = mesh.lattice_width - 1
    candidates: List[List[LatticeCell]] = []

    def join(*segments: List[LatticeCell]) -> List[LatticeCell]:
        """Concatenate cell segments, dropping duplicated junction cells."""
        path: List[LatticeCell] = []
        for segment in segments:
            for cell in segment:
                if not path or path[-1] != cell:
                    path.append(cell)
        return path

    channel_rows = [_clamp(sr - 1, 0, max_row), _clamp(sr + 1, 0, max_row)]
    channel_cols = [_clamp(tc - 1, 0, max_col), _clamp(tc + 1, 0, max_col)]
    for channel_row in channel_rows:
        for channel_col in channel_cols:
            candidates.append(
                join(
                    [source],
                    _straight_segment((channel_row, sc), (channel_row, channel_col)),
                    _straight_segment((channel_row, channel_col), (tr, channel_col)),
                    [target],
                )
            )

    source_channel_cols = [_clamp(sc - 1, 0, max_col), _clamp(sc + 1, 0, max_col)]
    target_channel_rows = [_clamp(tr - 1, 0, max_row), _clamp(tr + 1, 0, max_row)]
    for channel_col in source_channel_cols:
        for channel_row in target_channel_rows:
            candidates.append(
                join(
                    [source],
                    _straight_segment((sr, channel_col), (channel_row, channel_col)),
                    _straight_segment((channel_row, channel_col), (channel_row, tc)),
                    [target],
                )
            )

    # De-duplicate candidates while preserving order.
    unique: List[List[LatticeCell]] = []
    seen: Set[FrozenSet[LatticeCell]] = set()
    for path in candidates:
        key = frozenset(path)
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def bfs_detour(
    mesh: Mesh,
    source: LatticeCell,
    target: LatticeCell,
    blocked: AbstractSet[LatticeCell],
    max_length: Optional[int] = None,
) -> Optional[List[LatticeCell]]:
    """Shortest channel path avoiding ``blocked`` cells, or ``None``.

    Qubit tile cells other than the endpoints are treated as obstacles (the
    braid must go around them).  ``max_length`` caps the detour length so
    pathological routes are rejected in favour of stalling.
    """
    obstacles = set(mesh.occupied_tile_cells())
    obstacles.discard(source)
    obstacles.discard(target)
    if source in blocked or target in blocked:
        return None

    queue: deque = deque([source])
    parents: Dict[LatticeCell, Optional[LatticeCell]] = {source: None}
    while queue:
        cell = queue.popleft()
        if cell == target:
            break
        for neighbor in mesh.neighbors(cell):
            if neighbor in parents:
                continue
            if neighbor in blocked or neighbor in obstacles:
                continue
            parents[neighbor] = cell
            queue.append(neighbor)
    if target not in parents:
        return None
    path: List[LatticeCell] = []
    cursor: Optional[LatticeCell] = target
    while cursor is not None:
        path.append(cursor)
        cursor = parents[cursor]
    path.reverse()
    if max_length is not None and len(path) > max_length:
        return None
    return path


class BraidRouter:
    """Routes braids on a mesh, avoiding a set of currently locked cells.

    The router is the simulator's answer to the question "can this braid run
    *right now*?".  For every endpoint pair it considers up to
    ``max_candidates`` rectilinear route shapes (see
    :func:`rectilinear_candidates`) and returns the first one whose cells are
    disjoint from the currently locked set.  What happens when every
    candidate is blocked is the **stall-vs-detour** policy split:

    * ``allow_detour=False`` (the paper's baseline) — the router returns
      ``None`` and the simulator *stalls* the gate, retrying it after the
      next braid completion.  Stalled cycles are charged to the mapping: a
      good placement keeps contending braids apart.
    * ``allow_detour=True`` (the routing ablation) — the router runs a BFS
      over free channel cells and accepts any path at most
      ``detour_slack`` times the best rectilinear length.  Detours trade
      braid footprint (space) for immediacy (time).

    Routing is deterministic: candidates are tried in a fixed order, so two
    simulations of the same schedule on the same placement make identical
    routing decisions.

    The candidate shapes for an endpoint pair do not depend on which cells
    are momentarily locked, so the router precomputes each pair's candidate
    paths (with their cell sets) on first use and replays them on every
    retry.  The compiled simulator kernel builds the same plans
    (:mod:`repro.routing.batchsim`).

    Parameters
    ----------
    mesh:
        The routing substrate.
    allow_detour:
        When all rectilinear candidates are blocked, search for a BFS detour
        through free channels.  The paper's baseline simulator stalls
        instead, so the default is ``False``; the detour router is used in
        the routing ablation study.
    detour_slack:
        Maximum detour length as a multiple of the best rectilinear length.
    max_candidates:
        How many rectilinear route shapes a braid may choose from.  Small
        values model the paper's stall-on-intersection semantics (a braid
        whose natural corridor is busy waits); larger values give the router
        freedom to steer around traffic and weaken the influence of the
        mapping on latency.
    """

    def __init__(
        self,
        mesh: Mesh,
        allow_detour: bool = False,
        detour_slack: float = 2.0,
        max_candidates: int = 2,
    ) -> None:
        self.mesh = mesh
        self.allow_detour = allow_detour
        self.detour_slack = detour_slack
        self.max_candidates = max(1, max_candidates)
        # Per-endpoint-pair route plans (candidate paths with frozen cell
        # sets), keyed by lattice cells: candidate shapes depend only on
        # the mesh geometry, never on the locked set, so a plan stays valid
        # for the router's lifetime.
        self._pair_plans: Dict[
            Tuple[LatticeCell, LatticeCell],
            Tuple[Tuple[Tuple[List[LatticeCell], FrozenSet[LatticeCell]], ...], int],
        ] = {}

    # ------------------------------------------------------------------
    # Two-endpoint braids
    # ------------------------------------------------------------------
    def route_pair(
        self,
        qubit_a: int,
        qubit_b: int,
        locked: AbstractSet[LatticeCell],
        hop: Optional[LatticeCell] = None,
    ) -> Optional[BraidPath]:
        """Route a braid between two qubits, avoiding ``locked`` cells.

        With ``hop`` set, the braid is forced through the given intermediate
        lattice cell (Valiant-style routing, Section VII-B.3); the two legs
        belong to the same braid and may share cells with each other.
        Returns ``None`` when no candidate (and, with ``allow_detour``, no
        acceptable detour) avoids the locked cells — the caller then stalls
        the gate until a braid completion frees some cells.
        """
        source = self.mesh.qubit_cell(qubit_a)
        target = self.mesh.qubit_cell(qubit_b)
        if hop is not None:
            first = self._route_cells(source, hop, locked)
            if first is not None:
                # The two legs belong to the same braid, so they are allowed
                # to touch each other; only other braids' cells are excluded.
                second = self._route_cells(hop, target, locked)
                if second is not None:
                    return BraidPath.from_cells(
                        set(first) | set(second),
                        endpoints=(source, target),
                        hop=hop,
                    )
            # Fall back to a direct route when the hop cannot be honoured.
        cells = self._route_cells(source, target, locked)
        if cells is None:
            return None
        return BraidPath.from_cells(cells, endpoints=(source, target))

    def unconstrained_pair(self, qubit_a: int, qubit_b: int) -> BraidPath:
        """The preferred (first-candidate) braid path, ignoring congestion.

        Used for analysis (e.g. measuring how much area a braid would occupy)
        and by tests that need a deterministic path.
        """
        source = self.mesh.qubit_cell(qubit_a)
        target = self.mesh.qubit_cell(qubit_b)
        candidates, _ = self._pair_plan(source, target)
        return BraidPath.from_cells(candidates[0][0], endpoints=(source, target))

    def _pair_plan(
        self, source: LatticeCell, target: LatticeCell
    ) -> Tuple[Tuple[Tuple[List[LatticeCell], FrozenSet[LatticeCell]], ...], int]:
        """The cached set-based candidate routes for an endpoint pair.

        Returns ``(candidates, best_length)`` where ``candidates`` is a tuple
        of ``(path, cell_set)`` pairs, truncated to ``max_candidates``, and
        ``best_length`` is the shortest candidate's cell count.  Callers must
        treat the returned paths as read-only.
        """
        key = (source, target)
        plan = self._pair_plans.get(key)
        if plan is None:
            candidates = rectilinear_candidates(self.mesh, source, target)
            candidates = candidates[: self.max_candidates]
            plan = (
                tuple((path, frozenset(path)) for path in candidates),
                min(len(path) for path in candidates),
            )
            self._pair_plans[key] = plan
        return plan

    def _route_cells(
        self,
        source: LatticeCell,
        target: LatticeCell,
        locked: AbstractSet[LatticeCell],
    ) -> Optional[List[LatticeCell]]:
        """Find a concrete cell path from ``source`` to ``target``."""
        if source == target:
            return [source]
        candidates, best_length = self._pair_plan(source, target)
        if not locked:
            # Early exit: nothing is in flight, the preferred shape wins.
            return candidates[0][0]
        for path, cells in candidates:
            if cells.isdisjoint(locked):
                return path
        if self.allow_detour:
            max_length = int(best_length * self.detour_slack) + 2
            detour = bfs_detour(self.mesh, source, target, locked, max_length)
            if detour is not None:
                return detour
        return None

    # ------------------------------------------------------------------
    # Multi-target braids
    # ------------------------------------------------------------------
    def route_star(
        self,
        control: int,
        targets: Sequence[int],
        locked: AbstractSet[LatticeCell],
    ) -> Optional[BraidPath]:
        """Route a single-control multi-target CNOT as a star of braids.

        The footprint is the union of the control-to-target paths; each leg
        must avoid the locked cells, but legs of the same star may share
        cells with each other (they form one braid).  Returns ``None`` if any
        leg cannot be routed.
        """
        control_cell = self.mesh.qubit_cell(control)
        cells: Set[LatticeCell] = {control_cell}
        endpoints: List[LatticeCell] = [control_cell]
        for target in targets:
            target_cell = self.mesh.qubit_cell(target)
            endpoints.append(target_cell)
            leg = self._route_cells(control_cell, target_cell, locked)
            if leg is None:
                return None
            cells.update(leg)
        return BraidPath.from_cells(cells, endpoints=endpoints)
