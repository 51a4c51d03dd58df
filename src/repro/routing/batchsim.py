"""The compiled fast path of the braid simulator.

Every point :func:`repro.routing.simulator.simulate` or
:func:`simulate_batch` can plan runs its event loop in the compiled kernel
(:mod:`repro.routing.kernel`, ``batchsim_kernel.c``);
:func:`~repro.routing.simulator.simulate_reference` is the oracle it
matches and the engine of every other point.

A capacity sweep simulates the *same circuit* under many placements and
configs.  :func:`simulate_batch` exploits that: it groups requests by
circuit, shares the per-circuit preparation (dependency DAG, gate
metadata, the braids flattened into endpoint-pair *legs*) across the
group and each placement's table of route candidates across its configs.
A single evaluation is a batch of one that :func:`simulate` runs through
the same code without opening a batch.

Candidate table
---------------
Every route candidate the router can produce between two lattice cells
is an L-shaped path: two endpoint cells, one horizontal run and one
vertical run.  The kernel stores each candidate as one fixed-width int32
row (endpoints, horizontal run, vertical run, cell count) whatever the
lattice size, and derives its conflict probes and lock/free bits from
those coordinates.  A placement's table holds one plan per leg, written
in one call by the kernel's ``build_plans``, which replicates
:func:`~repro.routing.router.rectilinear_candidates`: the same channel
enumeration and the same generation-order dedup by cell set, left
untruncated so one plan serves every ``max_candidates``.  Each point's
occupancy is a dual row/column bitboard sized to its own lattice
(⌈W/64⌉ words per lattice row, ⌈H/64⌉ per lattice column), so every mesh
size runs in the kernel.

Hop braids (``SimulatorConfig.hops``, Valiant routing) depend on the
config, so their two legs — source to hop, hop to target — are planned
per point and appended to the placement's table; the kernel tries both
legs, then the direct route, exactly like the router.

Exactness contract
------------------
Per-point results are **byte-identical** (``SimulationResult.to_dict()``
equality) to :func:`~repro.routing.simulator.simulate_reference` at any
batch size and any grouping: same candidate order and truncation, the
same watch cell per blocked candidate (its lowest blocked cell in
row-major order), the same wake rule, and the same legacy ``scan`` clock
behind ``stall_events``.  The kernel does not plan three kinds of point,
which run on :func:`~repro.routing.simulator.simulate_reference`
instead: BFS detours (``allow_detour``); a braid with coincident
endpoints (a star leg whose target sits on the control's tile); and a hop
outside the mesh.  Without the kernel (no C compiler, or
``REPRO_NO_KERNEL=1``) every point runs on the reference, so such an
environment loses speed, never correctness.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.gates import GateKind
from ..mapping.placement import Placement
from . import kernel as _kernel
from .mesh import Mesh
from .simulator import (
    RoutingDeadlockError,
    SimulationResult,
    SimulatorConfig,
    _empty_result,
    _gate_list,
    circuit_fingerprint,
    simulate_reference,
)

__all__ = ["simulate_batch", "kernel_available", "BatchPoint"]

#: One batch request: (circuit_or_gates, placement, config-or-None).
BatchPoint = Tuple[object, Placement, Optional[SimulatorConfig]]

#: Gate kinds in the per-gate ``kind`` array (the kernel's ``KIND_*``).
_KIND_PLAIN = 0   # non-braided: always issues
_KIND_PAIR = 1    # simple two-endpoint braid: one candidate block
_KIND_STAR = 2    # CXX star: one candidate block per leg
_KIND_HOP = 3     # pair with a hop: two legs, then the direct block


class _Shared:
    """Per-circuit state shared by every point of a group.

    Besides the gate metadata and the dependency DAG this flattens the
    circuit's braids into *legs* — one endpoint pair per pair gate and
    per star target — so a placement's candidate table is one kernel call
    over a ``(legs, 4)`` coordinate array and its per-gate arrays are
    numpy scatters.
    """

    __slots__ = (
        "n",
        "kind",
        "max_legs",
        "succ_flat",
        "succ_off",
        "pred_count",
        "qubits",
        "leg_src",
        "leg_dst",
        "pair_gates",
        "pair_legs",
        "star_rows",
        "star_cols",
        "star_legs",
    )

    def __init__(self, gates) -> None:
        from ..circuits.dag import build_dependency_dag

        self.n = len(gates)
        kind = [
            _KIND_STAR if gate.kind is GateKind.CXX
            else _KIND_PAIR if gate.is_braided
            else _KIND_PLAIN
            for gate in gates
        ]
        self.kind = np.asarray(kind, dtype=np.int64)
        dag = build_dependency_dag(gates)
        succ_flat: List[int] = []
        succ_off: List[int] = [0]
        for successors in dag.successors:
            succ_flat.extend(successors)
            succ_off.append(len(succ_flat))
        self.succ_flat = np.asarray(succ_flat, dtype=np.int64)
        self.succ_off = np.asarray(succ_off, dtype=np.int64)
        self.pred_count = np.asarray(
            [len(p) for p in dag.predecessors], dtype=np.int64
        )

        # Legs reference qubits by their position in ``self.qubits``.
        self.qubits = sorted({q for gate in gates for q in gate.qubits})
        slot = {q: i for i, q in enumerate(self.qubits)}
        leg_src: List[int] = []
        leg_dst: List[int] = []
        pair_gates: List[int] = []
        pair_legs: List[int] = []
        star_rows: List[int] = []
        star_cols: List[int] = []
        star_legs: List[int] = []
        max_legs = 0
        for index, gate in enumerate(gates):
            if kind[index] == _KIND_PLAIN:
                continue
            control, *targets = gate.qubits
            if kind[index] == _KIND_PAIR:
                pair_gates.append(index)
                pair_legs.append(len(leg_src))
            else:
                star_rows.extend([index] * len(targets))
                star_cols.extend(range(len(targets)))
                star_legs.extend(range(len(leg_src), len(leg_src) + len(targets)))
                max_legs = max(max_legs, len(targets))
            leg_src.extend([slot[control]] * len(targets))
            leg_dst.extend(slot[target] for target in targets)
        self.max_legs = max_legs
        self.leg_src = np.asarray(leg_src, dtype=np.int64)
        self.leg_dst = np.asarray(leg_dst, dtype=np.int64)
        self.pair_gates = np.asarray(pair_gates, dtype=np.int64)
        self.pair_legs = np.asarray(pair_legs, dtype=np.int64)
        self.star_rows = np.asarray(star_rows, dtype=np.int64)
        self.star_cols = np.asarray(star_cols, dtype=np.int64)
        self.star_legs = np.asarray(star_legs, dtype=np.int64)


def _validate_placement(shared: _Shared, placement: Placement) -> None:
    """Same check (and message) as ``simulator._prepare_simulation``."""
    missing = [q for q in shared.qubits if q not in placement.positions]
    if missing:
        raise ValueError(
            f"{len(missing)} qubits used by the circuit are not placed "
            f"(first few: {sorted(missing)[:5]})"
        )


def _candidate_rows(kern, coords: np.ndarray, height: int,
                    width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Untruncated candidate rows of each endpoint pair on a lattice.

    ``coords`` is ``(m, 4)``: source row/col, target row/col.  Returns the
    table — ``(m * MAX_CANDIDATES, CAND_FIELDS)`` int32, pair ``i``'s rows
    starting at ``i * MAX_CANDIDATES`` — and each pair's row count (-1
    when the kernel has no plan for it).  A plan depends only on the
    lattice dimensions and its endpoints, never on the locked set or
    ``max_candidates``: truncating it to the first ``max_candidates`` rows
    reproduces the router's plan exactly (its dedup keeps generation
    order, so truncating the full dedup'd sequence is the same plan).
    Slots past a pair's count are left unwritten and never read.
    """
    m = len(coords)
    table = np.empty(
        (m * _kernel.MAX_CANDIDATES, _kernel.CAND_FIELDS), dtype=np.int32
    )
    kept = np.empty(m, dtype=np.int64)
    kern.build_plans(
        np.ascontiguousarray(coords, dtype=np.int64), m,
        height - 1, width - 1, table, kept,
    )
    return table, kept


class _PlacementPlans:
    """Per-(circuit, placement) kernel inputs, shared across configs.

    ``table`` holds one untruncated plan per leg (``coords`` its
    endpoints); ``block``/``length`` locate each pair gate's rows, and
    star gates get per-leg rows (``star_start``/``star_len``; the control
    cell is every leg's source endpoint).  ``batchable`` is False when
    some braid has no plan (coincident endpoints), which sends every point
    on this placement to the reference.
    """

    __slots__ = (
        "height",
        "width",
        "coords",
        "table",
        "block",
        "length",
        "star_start",
        "star_len",
        "batchable",
    )

    def __init__(self, kern, shared: _Shared, placement: Placement) -> None:
        # Built for its bounds check, which simulate_reference performs too.
        mesh = Mesh.from_placement(
            placement.positions, width=placement.width, height=placement.height
        )
        self.height = mesh.lattice_height
        self.width = mesh.lattice_width
        cells = np.asarray(
            [mesh.qubit_cells[q] for q in shared.qubits], dtype=np.int64
        ).reshape(-1, 2)
        self.coords = np.concatenate(
            [cells[shared.leg_src], cells[shared.leg_dst]], axis=1
        )
        self.table, kept = _candidate_rows(
            kern, self.coords, self.height, self.width
        )
        self.batchable = bool((kept >= 0).all())
        first = np.arange(len(kept), dtype=np.int64) * _kernel.MAX_CANDIDATES
        n = shared.n
        self.block = np.zeros(n, dtype=np.int64)
        self.length = np.zeros(n, dtype=np.int64)
        self.block[shared.pair_gates] = first[shared.pair_legs]
        self.length[shared.pair_gates] = kept[shared.pair_legs]
        legs = (shared.star_rows, shared.star_cols)
        self.star_start = np.zeros((n, shared.max_legs), dtype=np.int64)
        self.star_len = np.zeros((n, shared.max_legs), dtype=np.int64)
        self.star_start[legs] = first[shared.star_legs]
        self.star_len[legs] = kept[shared.star_legs]


def _hop_inputs(kern, shared: _Shared, plans: _PlacementPlans,
                placement: Placement, config: SimulatorConfig):
    """``(kind, table, star_start, star_len)`` for one point's hops.

    Hop gates become ``_KIND_HOP`` with their two legs planned here and
    appended to the placement's table; hops on stars and on non-braided
    gates are ignored, as the router ignores them.  So is a hop on its
    braid's own source or target tile: the router routes that leg as the
    tile cell alone and the other leg as the direct route, which is
    exactly the plain pair.  Returns None when a hop lies outside the
    mesh: the kernel has no plan for its legs, so the reference routes
    them.
    """
    gates = [
        index for index in config.hops
        if 0 <= index < shared.n and shared.kind[index] == _KIND_PAIR
    ]
    tiles = np.asarray(
        [config.hops[index] for index in gates], dtype=np.int64
    ).reshape(-1, 2)
    if not ((tiles >= 0) & (tiles < (placement.height, placement.width))).all():
        return None
    hop = 2 * tiles + 1
    gates = np.asarray(gates, dtype=np.int64)
    ends = plans.coords[
        shared.pair_legs[np.searchsorted(shared.pair_gates, gates)]
    ]
    on_end = (hop == ends[:, :2]).all(axis=1) | (hop == ends[:, 2:]).all(axis=1)
    gates, hop, ends = gates[~on_end], hop[~on_end], ends[~on_end]
    if not len(gates):
        return shared.kind, plans.table, plans.star_start, plans.star_len
    legs = np.concatenate([
        np.concatenate([ends[:, :2], hop], axis=1),
        np.concatenate([hop, ends[:, 2:]], axis=1),
    ])
    rows, kept = _candidate_rows(kern, legs, plans.height, plans.width)
    if (kept < 0).any():  # pragma: no cover - in-mesh, distinct endpoints
        return None
    kind = shared.kind.copy()
    kind[gates] = _KIND_HOP
    width = max(2, shared.max_legs)
    star_start = np.zeros((shared.n, width), dtype=np.int64)
    star_len = np.zeros((shared.n, width), dtype=np.int64)
    star_start[:, :shared.max_legs] = plans.star_start
    star_len[:, :shared.max_legs] = plans.star_len
    first = len(plans.table) + np.arange(len(legs)) * _kernel.MAX_CANDIDATES
    star_start[gates, :2] = first.reshape(2, -1).T
    star_len[gates, :2] = kept.reshape(2, -1).T
    return kind, np.concatenate([plans.table, rows]), star_start, star_len


def _simulate_point(kern, shared: _Shared, plans: _PlacementPlans,
                    placement: Placement, config: SimulatorConfig,
                    dur: np.ndarray) -> Optional[SimulationResult]:
    """One point's event loop in the kernel; None when it cannot plan it."""
    inputs = _hop_inputs(kern, shared, plans, placement, config)
    if inputs is None:
        return None
    kind, table, star_start, star_len = inputs
    n = shared.n
    mc = max(1, config.max_candidates)
    gate_start = np.empty(n, dtype=np.int64)
    gate_end = np.empty(n, dtype=np.int64)
    ready = np.empty(n, dtype=np.int64)
    counters = np.zeros(_kernel.COUNTER_SLOTS, dtype=np.int64)
    code = kern.simulate_point(
        n, kind, dur, plans.block, np.minimum(plans.length, mc),
        star_start.shape[1], star_start, np.minimum(star_len, mc),
        shared.succ_flat, shared.succ_off, shared.pred_count, table,
        plans.height, plans.width, config.max_cycles,
        gate_start, gate_end, ready, counters,
    )
    if code == _kernel.MAX_CYCLES_EXCEEDED:
        raise RuntimeError(f"simulation exceeded max_cycles={config.max_cycles}")
    if code == _kernel.DEADLOCK:
        raise RoutingDeadlockError(
            f"{int(counters[0])} gates cannot be routed on an otherwise idle mesh"
        )
    if code != _kernel.OK:  # pragma: no cover - allocation failure
        raise RuntimeError(f"batchsim kernel failed with code {code}")
    return SimulationResult(
        latency=int(counters[8]),
        area=placement.area,
        gate_start=gate_start.tolist(),
        gate_end=gate_end.tolist(),
        stall_cycles=int(counters[7]),
        stall_events=int(counters[1]),
        braided_gates=int(counters[2]),
        max_concurrent_braids=int(counters[3]),
        total_braid_cells=int(counters[4]),
        distinct_stalls=int(counters[5]),
        wakeups=int(counters[6]),
    )


def _run_group(kern, gates, points: List[Tuple[object, Placement, SimulatorConfig]]
               ) -> List[Optional[SimulationResult]]:
    """Kernel results of one circuit's points; None where it cannot plan one.

    Points are taken placement by placement, so only one placement's
    candidate table is alive at a time.  Detour points never build one.
    """
    if len(gates) == 0:
        return [_empty_result(placement) for _, placement, _ in points]
    shared = _Shared(gates)
    for _, placement, _ in points:
        _validate_placement(shared, placement)
    results: List[Optional[SimulationResult]] = [None] * len(points)
    by_placement: Dict[tuple, List[int]] = {}
    for position, (_, placement, config) in enumerate(points):
        if not config.allow_detour:
            by_placement.setdefault(placement.fingerprint(), []).append(position)
    durations: Dict[tuple, np.ndarray] = {}
    for positions in by_placement.values():
        plans = _PlacementPlans(kern, shared, points[positions[0]][1])
        if not plans.batchable:
            continue
        for position in positions:
            _, placement, config = points[position]
            key = tuple(
                sorted((kind.value, int(v)) for kind, v in config.durations.items())
            )
            dur = durations.get(key)
            if dur is None:
                dur = np.asarray(
                    [gate.duration(config.durations) for gate in gates],
                    dtype=np.int64,
                )
                durations[key] = dur
            results[position] = _simulate_point(
                kern, shared, plans, placement, config, dur
            )
    return results


def _simulate_in_kernel(gates, placement: Placement,
                        config: SimulatorConfig) -> Optional[SimulationResult]:
    """One point through the kernel, or None when it cannot run there.

    The fast path of :func:`~repro.routing.simulator.simulate`, which
    falls back to the reference on None: the kernel did not load, or the
    point is one the kernel does not plan (see the module docstring).
    """
    kern = _kernel.load()
    if kern is None:
        return None
    return _run_group(kern, gates, [(gates, placement, config)])[0]


def kernel_available() -> bool:
    """Whether the compiled kernel engine can run in this environment."""
    return _kernel.available()


def simulate_batch(requests: Sequence[BatchPoint]) -> List[SimulationResult]:
    """Simulate many (circuit, placement, config) points, batched.

    ``requests`` is a sequence of ``(circuit_or_gates, placement, config)``
    triples (``config`` may be ``None`` for the default).  Requests are
    grouped by circuit content; each group shares its circuit preparation,
    each placement its candidate table, and every point the kernel can
    plan runs through it; the rest, and every point when the kernel does
    not load, run on :func:`~repro.routing.simulator.simulate_reference`.
    Results come back in request order and are byte-identical to
    per-request :func:`~repro.routing.simulator.simulate` calls.
    """
    normalized = [
        (circ, placement, config or SimulatorConfig())
        for circ, placement, config in requests
    ]
    kern = _kernel.load()
    if kern is None:
        return [simulate_reference(*point) for point in normalized]

    # Group same-circuit requests.  Sweeps pass the same circuit (or gate
    # tuple) object for every point, so each distinct object is read and
    # fingerprinted once: a Circuit memoizes its own digest, and one-shot
    # iterables are consumed exactly once.
    groups: Dict[str, List[int]] = {}
    circuits: Dict[str, object] = {}
    fingerprint_of: Dict[int, str] = {}
    for index, (circ, _placement, _config) in enumerate(normalized):
        fingerprint = fingerprint_of.get(id(circ))
        if fingerprint is None:
            circuit = circ if isinstance(circ, Circuit) else _gate_list(circ)
            fingerprint = circuit_fingerprint(circuit)
            fingerprint_of[id(circ)] = fingerprint
            circuits.setdefault(fingerprint, circuit)
        groups.setdefault(fingerprint, []).append(index)

    results: List[Optional[SimulationResult]] = [None] * len(normalized)
    for fingerprint, indices in groups.items():
        gates = _gate_list(circuits[fingerprint])
        group = [normalized[i] for i in indices]
        group_results = _run_group(kern, gates, group)
        for index, (_, placement, config), result in zip(indices, group, group_results):
            if result is None:
                result = simulate_reference(gates, placement, config)
            results[index] = result
    return results  # type: ignore[return-value]
