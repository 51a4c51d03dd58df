"""Force-directed annealing mapper (Section VI-B.1).

The force-directed (FD) procedure iteratively transforms an initial mapping
by simulating three kinds of forces, each targeting one of the congestion
heuristics of Section VI-A:

* **vertex-vertex attraction** — every vertex is pulled toward the centroid
  of its interaction-graph neighbours, shrinking average edge length;
* **edge-edge repulsion** — braids repel each other through forces between
  edge midpoints (inverse-square in the midpoint distance), spreading edges
  uniformly over the mesh;
* **magnetic dipole rotation** — every vertex is assigned a north/south pole
  by 2-colouring the interaction graph; opposite poles attract and identical
  poles repel, which rotates edges toward (anti-)parallel orientations and
  reduces edge crossings.

Vertices are moved along the net force through an annealing acceptance rule
(improving moves always accepted, worsening moves accepted with Boltzmann
probability under a cooling temperature).  Acceptance is judged against the
*exact* combined cost of Section VI-A's metric triple — edge crossings,
average edge length, average edge spacing — maintained incrementally by
:class:`repro.graphs.metrics.MappingCostTracker`, so the annealer optimizes
the objective Fig. 6 reports at every graph size.  When progress stalls,
higher-level
*community* moves — repulsion between distinct communities, or attraction of
a fragmented community's clusters (located by KMeans) back together — kick
the mapping out of the local minimum, exactly as described in the paper.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as _np

from ..circuits.circuit import Circuit
from ..graphs.adjacency import Graph
from ..graphs.community import (
    community_centroid,
    community_fragmentation,
    detect_communities,
)
from ..graphs.interaction import interaction_graph
from ..graphs.metrics import (
    NAN_FORCE_ERROR,
    KernelSweep,
    MappingCostTracker,
    SweepForces,
)
from .placement import Cell, Placement, grid_dimensions_for, row_major_placement

@dataclass
class ForceDirectedConfig:
    """Tuning knobs of the force-directed annealer.

    The ``use_*`` switches exist for ablations (e.g. running the annealer
    without the dipole rotation force to quantify how much the
    edge-crossing heuristic contributes).
    """

    sweeps: int = 30
    temperature: float = 1.0
    cooling: float = 0.88
    attraction_weight: float = 1.0
    repulsion_weight: float = 1.0
    dipole_weight: float = 1.0
    neighborhood_radius: int = 4
    #: Maximum cells a vertex may travel in one move (the net force sets the
    #: actual distance, clamped to this bound).
    max_step: int = 4
    community_patience: int = 5
    max_community_moves: int = 4
    use_attraction: bool = True
    use_edge_repulsion: bool = True
    use_dipole: bool = True
    use_communities: bool = True
    cost_crossing_weight: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        """Reject values the annealer cannot run with, naming the field."""
        for spec in fields(self):
            _check_config_field(spec.name, getattr(self, spec.name))


#: Integer fields of :class:`ForceDirectedConfig` and their lower bounds.
_INT_FIELDS = {
    "sweeps": 0,
    "max_step": 1,
    "neighborhood_radius": 1,
    "community_patience": 0,
    "max_community_moves": 0,
    "seed": -math.inf,
}

#: Closed ranges of the float fields (the rest need only be finite).  The
#: force weights stay small enough that no weighted force sum can
#: overflow to a NaN force on any grid.
_FLOAT_RANGES = {
    "temperature": (0.0, math.inf),
    "cooling": (0.0, 1.0),
    "attraction_weight": (-1e6, 1e6),
    "repulsion_weight": (-1e6, 1e6),
    "dipole_weight": (-1e6, 1e6),
}


def _check_config_field(name: str, value) -> None:
    where = f"ForceDirectedConfig.{name}"
    if name.startswith("use_"):
        if not isinstance(value, bool):
            raise TypeError(f"{where} must be a bool, got {value!r}")
    elif name in _INT_FIELDS:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"{where} must be an int, got {value!r}")
        if value < _INT_FIELDS[name]:
            raise ValueError(
                f"{where} must be >= {_INT_FIELDS[name]}, got {value!r}"
            )
    else:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"{where} must be a number, got {value!r}")
        low, high = _FLOAT_RANGES.get(name, (-math.inf, math.inf))
        if not math.isfinite(value) or not low <= value <= high:
            raise ValueError(
                f"{where} must be finite and lie in [{low}, {high}], "
                f"got {value!r}"
            )


def assign_dipole_poles(graph: Graph, seed: int = 0) -> Dict[int, int]:
    """Assign a +1 / -1 pole to every vertex by greedy 2-colouring.

    The interaction graph of a full schedule is generally not bipartite, so
    a BFS greedy colouring is used: each vertex takes the pole that conflicts
    with the fewest already-coloured neighbours.  Within a single timestep the
    graph is a disjoint union of paths (the paper's observation), for which
    this reduces to an exact 2-colouring.
    """
    poles: Dict[int, int] = {}
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    rng.shuffle(nodes)
    for start in nodes:
        if start in poles:
            continue
        poles[start] = 1
        queue = [start]
        while queue:
            vertex = queue.pop()
            for neighbor in graph.neighbors(vertex):
                if neighbor in poles:
                    continue
                opposite = sum(
                    1
                    for n in graph.neighbors(neighbor)
                    if poles.get(n) == -poles[vertex]
                )
                same = sum(
                    1
                    for n in graph.neighbors(neighbor)
                    if poles.get(n) == poles[vertex]
                )
                poles[neighbor] = -poles[vertex] if same >= opposite else poles[vertex]
                queue.append(neighbor)
    return poles


def _np_bucket_pairs(keys, count: int):
    """Ordered (i, j) index pairs whose keys fall in a 3x3 neighbourhood.

    For every bucket, pairs its members against the members of the nine
    surrounding buckets (both orders, self-pairs dropped), as flat index
    arrays ready for vectorized force kernels.  Bucketing keeps the
    pairwise forces close to linear in the vertex (or edge) count.
    Returns ``None`` when no pair exists.
    """
    if count == 0:
        return None
    kr = keys[:, 0]
    kc = keys[:, 1]
    # Pack each 2-D bucket key into one integer; one unit of headroom on
    # every side keeps the nine neighbour offsets collision-free.
    width = int(kc.max()) - int(kc.min()) + 3
    code = (kr - int(kr.min()) + 1) * width + (kc - int(kc.min()) + 1)
    order = _np.argsort(code, kind="stable")
    sorted_code = code[order]
    # For every member and every one of the nine neighbour offsets, the
    # members of the target bucket form a contiguous run of the sorted
    # codes; expand all runs at once without a per-bucket Python loop.
    offsets = _np.asarray(
        [dr * width + dc for dr in (-1, 0, 1) for dc in (-1, 0, 1)],
        dtype=code.dtype,
    )
    targets = (code[_np.newaxis, :] + offsets[:, _np.newaxis]).ravel()
    start = _np.searchsorted(sorted_code, targets, side="left")
    end = _np.searchsorted(sorted_code, targets, side="right")
    counts = end - start
    total = int(counts.sum())
    if total == 0:
        return None
    members = _np.tile(_np.arange(count, dtype=_np.intp), 9)
    left = _np.repeat(members, counts)
    base = _np.cumsum(counts) - counts
    span = _np.arange(total, dtype=_np.intp) - _np.repeat(base, counts)
    right = order[_np.repeat(start, counts) + span]
    keep = left != right
    if not keep.any():
        return None
    return left[keep], right[keep]


class _ForceField:
    """Computes the per-vertex net force for the current placement.

    The three force kernels run vectorized over flat index arrays prepared
    once at construction (adjacency pairs, edge endpoints, poles).  Forces
    only steer proposals; the cost tracker decides every move.  This is
    the oracle of the metrics kernel's force pass, which gets the same
    arrays through :meth:`sweep_forces`.
    """

    def __init__(
        self,
        graph: Graph,
        config: ForceDirectedConfig,
        poles: Mapping[int, int],
    ) -> None:
        self.config = config
        nodes = list(graph.nodes())
        self._nodes = nodes
        index = {vertex: i for i, vertex in enumerate(nodes)}
        n = len(nodes)
        owner: List[int] = []
        neighbor: List[int] = []
        for vertex in nodes:
            for other in graph.neighbors(vertex):
                owner.append(index[vertex])
                neighbor.append(index[other])
        self._nbr_owner = _np.asarray(owner, dtype=_np.intp)
        self._nbr_index = _np.asarray(neighbor, dtype=_np.intp)
        counts = _np.bincount(self._nbr_owner, minlength=n)
        self._degree = counts.astype(float)
        self._nbr_offsets = _np.concatenate(([0], _np.cumsum(counts)))
        edges = list(graph.edges())
        self._edge_u = _np.asarray([index[a] for a, _ in edges], dtype=_np.intp)
        self._edge_v = _np.asarray([index[b] for _, b in edges], dtype=_np.intp)
        self._pole_arr = _np.asarray(
            [poles.get(vertex, 1) for vertex in nodes], dtype=_np.int64
        )

    def sweep_forces(self, max_step: int) -> SweepForces:
        """The field as the plain arrays a kernel sweep computes it from."""
        config = self.config
        return SweepForces(
            nbr_offsets=self._nbr_offsets,
            nbr_index=self._nbr_index,
            edge_u=self._edge_u,
            edge_v=self._edge_v,
            poles=self._pole_arr,
            weights=(
                config.attraction_weight,
                config.repulsion_weight,
                config.dipole_weight,
            ),
            enabled=(
                config.use_attraction,
                config.use_edge_repulsion,
                config.use_dipole,
            ),
            radius=config.neighborhood_radius,
            max_step=max_step,
        )

    def forces(self, positions: Mapping[int, Cell]):
        """Net force on every graph node, an ``(n, 2)`` array in node order."""
        config = self.config
        nodes = self._nodes
        out = _np.zeros((len(nodes), 2), dtype=float)
        if not nodes:
            return out
        pos = _np.asarray(
            [positions[vertex] for vertex in nodes], dtype=float
        ).reshape(len(nodes), 2)
        if config.use_attraction:
            self._np_attraction(pos, out)
        if config.use_edge_repulsion:
            self._np_edge_repulsion(pos, out)
        if config.use_dipole:
            self._np_dipole(pos, out)
        return out

    def _np_attraction(self, pos, out) -> None:
        """Pull every vertex toward the centroid of its neighbourhood."""
        if self._nbr_owner.size == 0:
            return
        weight = self.config.attraction_weight
        n = pos.shape[0]
        sum_r = _np.bincount(
            self._nbr_owner, weights=pos[self._nbr_index, 0], minlength=n
        )
        sum_c = _np.bincount(
            self._nbr_owner, weights=pos[self._nbr_index, 1], minlength=n
        )
        degree = self._degree
        has = degree > 0
        safe = _np.where(has, degree, 1.0)
        out[:, 0] += _np.where(has, weight * (sum_r / safe - pos[:, 0]), 0.0)
        out[:, 1] += _np.where(has, weight * (sum_c / safe - pos[:, 1]), 0.0)

    def _np_edge_repulsion(self, pos, out) -> None:
        """Repel edges from each other through their midpoints."""
        m = self._edge_u.size
        if m == 0:
            return
        weight = self.config.repulsion_weight
        bucket = float(max(2, self.config.neighborhood_radius))
        mids = (pos[self._edge_u] + pos[self._edge_v]) / 2.0
        pairs = _np_bucket_pairs(
            _np.floor_divide(mids, bucket).astype(_np.int64), m
        )
        if pairs is None:
            return
        left, right = pairs
        d_row = mids[left, 0] - mids[right, 0]
        d_col = mids[left, 1] - mids[right, 1]
        dist_sq = d_row * d_row + d_col * d_col
        tiny = dist_sq < 1e-9
        d_row = _np.where(tiny, 0.5, d_row)
        d_col = _np.where(tiny, 0.5, d_col)
        dist_sq = _np.where(tiny, 0.5, dist_sq)
        magnitude = weight / dist_sq
        # The repulsion acts on the edge; split it between the endpoints.
        push_r = _np.bincount(left, weights=magnitude * d_row, minlength=m) / 2.0
        push_c = _np.bincount(left, weights=magnitude * d_col, minlength=m) / 2.0
        n = pos.shape[0]
        out[:, 0] += _np.bincount(self._edge_u, weights=push_r, minlength=n)
        out[:, 0] += _np.bincount(self._edge_v, weights=push_r, minlength=n)
        out[:, 1] += _np.bincount(self._edge_u, weights=push_c, minlength=n)
        out[:, 1] += _np.bincount(self._edge_v, weights=push_c, minlength=n)

    def _np_dipole(self, pos, out) -> None:
        """Pole-based dipole forces: opposite poles attract, identical repel."""
        n = pos.shape[0]
        weight = self.config.dipole_weight
        radius = float(self.config.neighborhood_radius)
        pairs = _np_bucket_pairs(
            _np.floor_divide(pos, radius).astype(_np.int64), n
        )
        if pairs is None:
            return
        left, right = pairs
        d_row = pos[left, 0] - pos[right, 0]
        d_col = pos[left, 1] - pos[right, 1]
        dist_sq = d_row * d_row + d_col * d_col
        keep = (dist_sq >= 1e-9) & (dist_sq <= radius * radius)
        if not keep.any():
            return
        left = left[keep]
        magnitude = weight / dist_sq[keep]
        sign = _np.where(
            self._pole_arr[left] == self._pole_arr[pairs[1][keep]], 1.0, -1.0
        )
        out[:, 0] += _np.bincount(
            left, weights=sign * magnitude * d_row[keep], minlength=n
        )
        out[:, 1] += _np.bincount(
            left, weights=sign * magnitude * d_col[keep], minlength=n
        )


@dataclass
class RefineStats:
    """Counters and per-sweep exact costs of one ``force_directed_refine`` run.

    ``sweep_costs[i]`` is the exact combined metric cost at the end of sweep
    ``i`` (before any community move of that sweep); ``best_cost`` is the
    cost of the returned placement; ``stalled_sweeps`` counts sweeps that
    advanced the community-move patience counter.
    """

    sweeps: int = 0
    proposed_moves: int = 0
    accepted_moves: int = 0
    improving_moves: int = 0
    community_moves: int = 0
    stalled_sweeps: int = 0
    initial_cost: float = 0.0
    best_cost: float = 0.0
    sweep_costs: List[float] = field(default_factory=list)


#: Stats of every refine run since the last :func:`take_refine_stats` call.
#: The pipeline pops these to expose FD behaviour in its own counters (a
#: mapper may run several refinements per placement, e.g. per stitched
#: module, so this is a list rather than a single record).  Bounded: callers
#: that never drain it keep only the most recent runs, so a long-lived
#: process refining in a loop does not leak memory.  This is a process-wide
#: take-based channel — whoever calls :func:`take_refine_stats` next gets
#: (and clears) everything pending, so harvest promptly after refining.
_PENDING_REFINE_STATS: List[RefineStats] = []

#: Maximum refine-stats records kept pending (a stitched two-level mapping
#: runs one refinement per module, well under this bound).
_MAX_PENDING_REFINE_STATS = 64

#: Monotonic count of completed refine runs in this process.  Unlike the
#: bounded pending list, this never truncates, so consumers can bracket an
#: operation with :func:`refine_run_count` and attribute exactly the runs
#: it caused whatever else is pending.
_REFINE_RUN_COUNTER = 0


def take_refine_stats() -> List[RefineStats]:
    """Pop the stats of every :func:`force_directed_refine` run since the last call."""
    stats = list(_PENDING_REFINE_STATS)
    _PENDING_REFINE_STATS.clear()
    return stats


def refine_run_count() -> int:
    """Monotonic number of refine runs completed in this process.

    Lets a consumer bracket an operation and attribute only the runs it
    caused: snapshot the count before, and take the trailing ``after -
    before`` records of what :func:`take_refine_stats` returns.  Robust
    against records already pending and against the pending-list bound
    evicting old entries mid-operation.
    """
    return _REFINE_RUN_COUNTER


def _next_stall_counter(stall: int, new_best: bool, improved_any: bool) -> int:
    """Advance the community-move patience counter after one sweep.

    A sweep that found a new global best resets the counter; a sweep that
    merely made *some* improving local move holds it (the annealer is still
    making progress, so community moves should wait); only a sweep with no
    improving move at all counts toward ``community_patience``.
    """
    if new_best:
        return 0
    if improved_any:
        return stall
    return stall + 1


def _step_toward(forces, max_step: int):
    """Grid steps along the net forces, an ``(n, 2)`` int64 array.

    A component below 0.25 in magnitude gives no step; otherwise the step
    length is the force magnitude rounded half to even (``np.rint``, like
    ``round``), at least 1 and at most ``max_step``, so strongly displaced
    vertices (e.g. a later-round module sitting far from the qubits it
    talks to) can migrate across the array within a reasonable number of
    sweeps.  Callers clamp ``max_step`` to the grid size: any longer step
    leaves the grid all the same.
    """
    magnitude = _np.abs(forces)
    if _np.isnan(magnitude).any():
        raise ValueError(NAN_FORCE_ERROR)
    length = _np.minimum(max_step, _np.maximum(1.0, _np.rint(magnitude)))
    steps = _np.where(magnitude < 0.25, 0.0, _np.copysign(length, forces))
    return steps.astype(_np.int64)


def _oracle_sweep(
    placement: Placement,
    tracker: MappingCostTracker,
    vertices: Sequence[int],
    order: Sequence[int],
    steps,
    temperature: float,
    rng: random.Random,
    stats: RefineStats,
) -> bool:
    """One sweep's proposal loop in Python; returns whether a move improved.

    The readable oracle for the kernel's ``mc_sweep`` (and the path of the
    scalar tracker engine, under ``REPRO_NO_KERNEL=1``).  Each proposal moves
    ``vertices[order[p]]`` by ``steps[p]`` from its current cell, swapping
    with any occupant of the target; off-grid targets are skipped
    uncounted.  A move is accepted when it does not worsen the exact cost,
    or with Boltzmann probability otherwise (one RNG draw per such test).
    """
    improved_any = False
    for index, (d_row, d_col) in zip(order, steps.tolist()):
        if d_row == 0 and d_col == 0:
            continue
        vertex = vertices[index]
        row, col = placement.positions[vertex]
        target = (row + d_row, col + d_col)
        if not placement.in_bounds(target):
            continue
        occupant = placement.occupant(target)
        updates = {vertex: (float(target[0]), float(target[1]))}
        if occupant is not None:
            updates[occupant] = (float(row), float(col))
        delta = tracker.evaluate(updates)
        stats.proposed_moves += 1
        accept = delta <= 0 or (
            temperature > 1e-9 and rng.random() < math.exp(-delta / temperature)
        )
        if accept:
            # Commit the evaluation just made; a rejected proposal needs
            # no cleanup (the next evaluate() simply supersedes it).
            tracker.commit_evaluated()
            placement.move(vertex, target)
            stats.accepted_moves += 1
            if delta < 0:
                improved_any = True
                stats.improving_moves += 1
    return improved_any


def force_directed_refine(
    graph: Graph,
    initial: Placement,
    config: Optional[ForceDirectedConfig] = None,
) -> Placement:
    """Refine an existing placement with force-directed annealing.

    Every proposed move is accepted or rejected against the *exact* combined
    metric cost of :func:`repro.graphs.metrics.mapping_cost` — crossings,
    average edge length and average edge spacing — maintained incrementally
    by :class:`repro.graphs.metrics.MappingCostTracker`, at any graph size.
    Returns the exact-cost argmin over all sweep-end placements (including
    the initial one); the input placement is not modified.

    The policy lives here: the force weights and switches, the
    temperature schedule, best-placement tracking and community moves.
    On the compiled tracker engine each sweep's proposal order, forces,
    steps and proposal loop run inside the metrics kernel
    (:class:`repro.graphs.metrics.KernelSweep`), which keeps the cells
    and the generator from one sweep to the next and hands them back
    only before a community move and at the end; otherwise
    ``random.shuffle``, :meth:`_ForceField.forces`, :func:`_step_toward`
    and :func:`_oracle_sweep` run them.  The two are bit-identical.
    Every graph vertex must be placed (``KeyError`` otherwise).
    """
    config = config or ForceDirectedConfig()
    rng = random.Random(config.seed)
    placement = initial.copy()
    # The movers are the force field's vertices in its order, which the
    # kernel's force pass indexes by.
    vertices = list(graph.nodes())
    for vertex in vertices:
        if vertex not in placement.positions:
            raise KeyError(f"graph vertex {vertex!r} is unplaced")
    poles = assign_dipole_poles(graph, seed=config.seed)
    field_model = _ForceField(graph, config, poles)
    # Community detection is deferred until the first stall actually asks
    # for a community move (most refinements never stall); ``None`` means
    # "not computed yet", an empty list means "computed, none found".
    communities: Optional[List[List[int]]] = None

    tracker = MappingCostTracker(
        graph,
        placement.as_float_positions(),
        crossing_weight=config.cost_crossing_weight,
    )
    # A step longer than the grid leaves it all the same; the clamp keeps
    # every step a small integer.
    max_step = min(config.max_step, max(placement.height, placement.width))
    kernel = tracker.kernel_sweep(
        vertices,
        placement.height,
        placement.width,
        field_model.sweep_forces(max_step),
    )
    stats = RefineStats()

    best = placement.copy()
    best_cells = None  # the kernel's cell array at the best sweep end
    best_cost = tracker.cost()
    stats.initial_cost = best_cost
    temperature = config.temperature
    stall_counter = 0
    community_moves_used = 0
    if kernel is not None:
        kernel.load(placement.positions, rng)

    for _sweep in range(config.sweeps):
        stats.sweeps += 1
        if kernel is not None:
            proposed, accepted, improving = kernel.run(temperature)
            stats.proposed_moves += proposed
            stats.accepted_moves += accepted
            stats.improving_moves += improving
            improved_any = improving > 0
            current_cost = kernel.cost()
        else:
            order = list(range(len(vertices)))
            rng.shuffle(order)
            forces = field_model.forces(placement.positions)
            steps = _step_toward(forces[order], max_step)
            improved_any = _oracle_sweep(
                placement, tracker, vertices, order, steps, temperature, rng,
                stats,
            )
            current_cost = tracker.cost()

        temperature *= config.cooling
        stats.sweep_costs.append(current_cost)
        new_best = current_cost < best_cost
        if new_best:
            best_cost = current_cost
            if kernel is not None:
                best_cells = kernel.cells()
            else:
                best = placement.copy()
        stall_counter = _next_stall_counter(stall_counter, new_best, improved_any)
        if not new_best and not improved_any:
            stats.stalled_sweeps += 1

        if (
            config.use_communities
            and stall_counter >= config.community_patience
            and community_moves_used < config.max_community_moves
        ):
            if communities is None:
                communities = detect_communities(graph)
            if not communities:
                continue  # computed once; nothing to move, keep sweeping
            if kernel is not None:
                _take_back(kernel, placement, rng)
            before_positions = dict(placement.positions)
            _apply_community_move(placement, graph, communities, rng)
            moved = {
                v: (float(cell[0]), float(cell[1]))
                for v, cell in placement.positions.items()
                if cell != before_positions[v]
            }
            if moved:
                tracker.apply(moved)
            if kernel is not None:
                kernel.load(placement.positions, rng)
            community_moves_used += 1
            stats.community_moves += 1
            stall_counter = 0

    if kernel is not None:
        _take_back(kernel, placement, rng)
        if best_cells is not None:
            best = Placement(
                placement.width, placement.height, kernel.placed(best_cells)
            )
    stats.best_cost = best_cost
    global _REFINE_RUN_COUNTER
    _REFINE_RUN_COUNTER += 1
    _PENDING_REFINE_STATS.append(stats)
    del _PENDING_REFINE_STATS[:-_MAX_PENDING_REFINE_STATS]
    return best


def _take_back(
    kernel: KernelSweep, placement: Placement, rng: random.Random
) -> None:
    """Move the kernel's cells into ``placement`` and its generator state
    into ``rng`` (the tracker's mirrors follow)."""
    placement.positions.update(kernel.sync(rng))
    placement.validate()


def _apply_community_move(
    placement: Placement,
    graph: Graph,
    communities: Sequence[Sequence[int]],
    rng: random.Random,
) -> None:
    """One higher-level community move to escape a local minimum.

    Alternates (randomly) between pulling a fragmented community's clusters
    together and pushing two overlapping communities apart, as described in
    Section VI-B.1.  Moves are realised as single-cell relocations toward /
    away from the relevant centroid so the placement always stays valid.
    """
    float_positions = placement.as_float_positions()
    if rng.random() < 0.5 and len(communities) >= 2:
        # Community repulsion: push the two closest communities apart.
        centroids = [community_centroid(c, float_positions) for c in communities]
        best_pair = None
        best_distance = float("inf")
        for i in range(len(communities)):
            for j in range(i + 1, len(communities)):
                distance = math.hypot(
                    centroids[i][0] - centroids[j][0],
                    centroids[i][1] - centroids[j][1],
                )
                if distance < best_distance:
                    best_distance = distance
                    best_pair = (i, j)
        if best_pair is None:
            return
        i, j = best_pair
        for community_index, direction in ((i, 1.0), (j, -1.0)):
            away_row = centroids[i][0] - centroids[j][0]
            away_col = centroids[i][1] - centroids[j][1]
            norm = math.hypot(away_row, away_col) or 1.0
            step = (
                int(round(direction * away_row / norm)),
                int(round(direction * away_col / norm)),
            )
            _shift_vertices(placement, communities[community_index], step)
    else:
        # Community attraction: rejoin the clusters of a fragmented community.
        community = list(communities[rng.randrange(len(communities))])
        centroids, clusters = community_fragmentation(community, float_positions)
        if len(clusters) < 2:
            return
        target = community_centroid(community, float_positions)
        for cluster in clusters:
            cluster_centroid = community_centroid(cluster, float_positions)
            step_row = target[0] - cluster_centroid[0]
            step_col = target[1] - cluster_centroid[1]
            norm = math.hypot(step_row, step_col) or 1.0
            step = (int(round(step_row / norm)), int(round(step_col / norm)))
            _shift_vertices(placement, cluster, step)


def _shift_vertices(
    placement: Placement, vertices: Sequence[int], step: Tuple[int, int]
) -> None:
    """Shift a set of vertices by one step, skipping moves that leave the grid."""
    if step == (0, 0):
        return
    for vertex in vertices:
        if vertex not in placement.positions:
            continue
        row, col = placement.positions[vertex]
        target = (row + step[0], col + step[1])
        if placement.in_bounds(target):
            placement.move(vertex, target)


def force_directed_placement(
    circuit_or_graph,
    initial: Optional[Placement] = None,
    config: Optional[ForceDirectedConfig] = None,
    width: Optional[int] = None,
    height: Optional[int] = None,
) -> Placement:
    """Produce a force-directed placement for a circuit or interaction graph.

    When no initial placement is supplied a row-major placement on an
    auto-sized grid is used as the starting point (the paper starts from the
    linear hand-optimized mapping when one is available; callers that have a
    factory should pass ``linear_factory_placement(factory)`` as ``initial``).
    """
    config = config or ForceDirectedConfig()
    if isinstance(circuit_or_graph, Circuit):
        graph = interaction_graph(circuit_or_graph)
        qubits = list(range(circuit_or_graph.num_qubits))
    else:
        graph = circuit_or_graph
        qubits = list(graph.nodes())

    if initial is None:
        if width is None or height is None:
            height, width = grid_dimensions_for(len(qubits))
        initial = row_major_placement(qubits, width=width, height=height)
    return force_directed_refine(graph, initial, config)
