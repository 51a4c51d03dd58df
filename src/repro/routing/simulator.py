"""Cycle-accurate braid scheduling simulator.

This is the evaluation substrate of the paper (Section VIII-A): a simulator
that takes a gate-level schedule plus a physical qubit mapping and executes
the braids on the 2-D mesh, in parallel where the dependency structure and
routing allow, inserting stalls whenever two braids would intersect.

Semantics reproduced from the paper's description:

* any data hazard (the same qubit appearing in two instructions) is treated
  as a true dependency;
* braids are scheduled in parallel when their paths do not intersect; when
  they would intersect, one braid stalls until the other completes;
* barriers are machine-wide synchronisation points (implemented by the
  paper as a multi-target CNOT over every qubit);
* multi-target CNOT gates are routed as a star of paths from the control to
  every target, occupying the union of those paths.

The simulator is event driven: time jumps from one braid-completion event to
the next.  It has one oracle and one fast path:

* :func:`simulate_reference` — the set-based oracle: frozenset occupancy,
  every stalled gate re-tried at every completion event.  It also keeps
  *shadow parking accounting* — the cells the fast path parks each stalled
  gate on — so it reports the fast path's ``wakeups`` counter and asserts
  its parking invariant: a parked gate none of whose watch cells was freed
  must still fail to route.
* the compiled kernel of :mod:`repro.routing.batchsim`, which parks a
  stalled gate on its watch cells and re-tries it only when a retiring
  braid frees one of them.  Its :meth:`SimulationResult.to_dict` output is
  byte-identical to the oracle's (pinned by the differential fuzz suite).

:func:`simulate` runs a point in the kernel when the kernel loads and can
plan the point, and on the oracle otherwise.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from ..circuits.circuit import Circuit
from ..circuits.dag import build_dependency_dag
from ..circuits.gates import DEFAULT_DURATIONS, Gate, GateKind
from ..mapping.placement import Placement
from ..persistutil import tagged_fingerprint
from .braid import BraidPath
from .mesh import Cell, LatticeCell, Mesh, tile_to_lattice
from .router import BraidRouter


@dataclass
class SimulatorConfig:
    """Knobs of the braid simulator.

    Attributes
    ----------
    durations:
        Gate-kind to cycle-count mapping (defaults to
        :data:`~repro.circuits.gates.DEFAULT_DURATIONS`).
    allow_detour:
        Let blocked braids search for longer detour routes instead of
        stalling (off by default, matching the paper's stall-only baseline).
    detour_slack:
        Maximum detour length as a multiple of the shortest route.
    max_candidates:
        How many rectilinear route shapes each braid may choose from before
        it stalls (or detours); forwarded to
        :class:`~repro.routing.router.BraidRouter`.  The default of 2 models
        the paper's stall-on-intersection semantics, where a braid whose
        natural corridor is busy waits; larger values let braids steer
        around traffic and weaken the mapping's influence on latency.
    hops:
        Optional map from gate index to an intermediate *tile* cell the braid
        must pass through (Valiant-style routing for permutation braids,
        Section VII-B.3).  A hop outside the placement's grid is routed by
        :func:`simulate_reference` alone.
    max_cycles:
        Safety limit; simulation aborts with an error beyond this.

    Construction rejects values the simulator cannot run with (a
    :class:`TypeError` or :class:`ValueError` naming
    ``SimulatorConfig.<field>``): ``max_candidates`` must be an int >= 1,
    ``max_cycles`` an int >= 0, ``detour_slack`` a finite number >= 0,
    ``durations`` map :class:`GateKind` to ints >= 0 and ``hops`` map ints
    >= 0 to ``(row, col)`` pairs of ints >= 0.
    """

    durations: Mapping[GateKind, int] = field(
        default_factory=lambda: dict(DEFAULT_DURATIONS)
    )
    allow_detour: bool = False
    detour_slack: float = 2.0
    max_candidates: int = 2
    hops: Mapping[int, Cell] = field(default_factory=dict)
    max_cycles: int = 10_000_000

    def __post_init__(self) -> None:
        """Reject values the simulator cannot run with, naming the field."""
        if not isinstance(self.allow_detour, bool):
            raise TypeError(_invalid("allow_detour", "a bool", self.allow_detour))
        _check_int("max_candidates", self.max_candidates, 1)
        _check_int("max_cycles", self.max_cycles, 0)
        slack = self.detour_slack
        if isinstance(slack, bool) or not isinstance(slack, (int, float)):
            raise TypeError(_invalid("detour_slack", "a number", slack))
        if not math.isfinite(slack) or slack < 0:
            raise ValueError(_invalid("detour_slack", "finite and >= 0", slack))
        for name in ("durations", "hops"):
            if not isinstance(getattr(self, name), Mapping):
                raise TypeError(_invalid(name, "a mapping", getattr(self, name)))
        for kind, cycles in self.durations.items():
            if not isinstance(kind, GateKind):
                raise TypeError(_invalid("durations keys", "GateKind", kind))
            _check_int(f"durations[{kind.value!r}]", cycles, 0)
        for index, cell in self.hops.items():
            _check_int("hops keys", index, 0)
            if not isinstance(cell, (tuple, list)) or len(cell) != 2:
                raise TypeError(_invalid(f"hops[{index}]", "a (row, col) pair", cell))
            for value in cell:
                _check_int(f"hops[{index}]", value, 0)


def _invalid(name: str, expected: str, value) -> str:
    return f"SimulatorConfig.{name} must be {expected}, got {value!r}"


def _check_int(name: str, value, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(_invalid(name, "an int", value))
    if value < minimum:
        raise ValueError(_invalid(name, f">= {minimum}", value))


@dataclass
class SimulationResult:
    """Outcome of simulating one circuit on one placement.

    Stall accounting reports three counters:

    ``stall_events``
        The *legacy retry count*: how many failed route attempts the
        retry-every-event reference performs — one per stalled gate per
        completion event it stays stalled through.  Kept for comparability
        with earlier BENCH records; the kernel derives the identical value
        from event indices without performing the retries.
    ``distinct_stalls``
        How many gates stalled at least once (engine-independent).
    ``wakeups``
        How many times a parked gate was re-tried because a retiring braid
        freed one of its watch cells.  This is the kernel's actual retry
        count; ``stall_events - wakeups`` failed retries are the work it
        skips.  :func:`simulate_reference` reproduces the same number via
        shadow accounting.
    """

    latency: int
    area: int
    gate_start: List[int]
    gate_end: List[int]
    stall_cycles: int
    stall_events: int
    braided_gates: int
    max_concurrent_braids: int
    total_braid_cells: int
    distinct_stalls: int = 0
    wakeups: int = 0

    @property
    def volume(self) -> int:
        """Space-time volume (area in tiles times latency in cycles)."""
        return self.area * self.latency

    @property
    def average_braid_length(self) -> float:
        """Average braid footprint in lattice cells."""
        if self.braided_gates == 0:
            return 0.0
        return self.total_braid_cells / self.braided_gates

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict of every field plus the derived volume metrics."""
        data: Dict[str, object] = {
            f.name: getattr(self, f.name) for f in dataclasses.fields(self)
        }
        data["gate_start"] = list(self.gate_start)
        data["gate_end"] = list(self.gate_end)
        data["volume"] = self.volume
        data["average_braid_length"] = self.average_braid_length
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SimulationResult":
        """Inverse of :meth:`to_dict` (derived keys are ignored)."""
        names = {f.name for f in dataclasses.fields(cls) if f.init}
        payload = {key: value for key, value in data.items() if key in names}
        payload["gate_start"] = [int(v) for v in payload.get("gate_start", [])]
        payload["gate_end"] = [int(v) for v in payload.get("gate_end", [])]
        return cls(**payload)  # type: ignore[arg-type]


class RoutingDeadlockError(RuntimeError):
    """Raised when no ready braid can be routed and nothing is in flight."""


def _gate_list(circuit_or_gates) -> Tuple[Gate, ...]:
    if isinstance(circuit_or_gates, Circuit):
        return circuit_or_gates.gates
    return tuple(circuit_or_gates)


def _prepare_simulation(
    circuit_or_gates, placement: Placement, config: SimulatorConfig
):
    """The reference's setup: validation, mesh, router, hops, DAG."""
    gates = _gate_list(circuit_or_gates)
    used_qubits: Set[int] = set()
    for gate in gates:
        used_qubits.update(gate.qubits)
    missing = [q for q in used_qubits if q not in placement.positions]
    if missing:
        raise ValueError(
            f"{len(missing)} qubits used by the circuit are not placed "
            f"(first few: {sorted(missing)[:5]})"
        )

    mesh = Mesh.from_placement(
        placement.positions, width=placement.width, height=placement.height
    )
    router = BraidRouter(
        mesh,
        allow_detour=config.allow_detour,
        detour_slack=config.detour_slack,
        max_candidates=config.max_candidates,
    )
    hop_cells: Dict[int, LatticeCell] = {
        index: tile_to_lattice(cell) for index, cell in config.hops.items()
    }
    dag = build_dependency_dag(gates)
    return gates, mesh, router, hop_cells, dag


def _empty_result(placement: Placement) -> SimulationResult:
    return SimulationResult(
        latency=0,
        area=placement.area,
        gate_start=[],
        gate_end=[],
        stall_cycles=0,
        stall_events=0,
        braided_gates=0,
        max_concurrent_braids=0,
        total_braid_cells=0,
        distinct_stalls=0,
        wakeups=0,
    )


def simulate(
    circuit_or_gates,
    placement: Placement,
    config: Optional[SimulatorConfig] = None,
) -> SimulationResult:
    """Simulate a schedule on a placement and return timing/volume results.

    This is the cycle-accurate evaluation of Section VIII-A.  Every qubit
    referenced by the gate list must be placed; the simulation is
    deterministic, so the same (circuit, placement, config) triple always
    produces the same :class:`SimulationResult` (which is what makes
    :class:`SimulationCache` sound).

    Execution model:

    * gates become *ready* when every dependency (as computed by
      :func:`~repro.circuits.dag.build_dependency_dag`; any shared qubit is
      a true dependency) has completed;
    * ready gates are issued in program order; non-braided gates always
      start immediately;
    * a braided gate asks the :class:`~repro.routing.router.BraidRouter` for
      a path avoiding the cells locked by in-flight braids.  If no path
      exists the gate **stalls** until a braid completion frees a cell that
      blocked it (with ``allow_detour`` the router may instead accept a
      longer path through free channels, trading space for time; see the
      router's stall-vs-detour notes);
    * a routed braid locks its cells for the gate's duration and releases
      them on completion.

    The point runs in the compiled kernel of :mod:`repro.routing.batchsim`
    when the kernel loads and can plan it, and on :func:`simulate_reference`
    otherwise (BFS detours, coincident braid endpoints, hops outside the
    mesh, and every point without a C compiler or under
    ``REPRO_NO_KERNEL=1``).  Both give byte-identical results.

    Stalled cycles (start minus ready time, summed over gates) are reported
    as ``stall_cycles`` and charged to the mapping; see
    :class:`SimulationResult` for the three stall counters.

    Raises :class:`RoutingDeadlockError` if ready braids cannot be routed on
    an otherwise idle mesh, and :class:`RuntimeError` past
    ``config.max_cycles``.
    """
    from .batchsim import _simulate_in_kernel  # batchsim imports this module

    config = config or SimulatorConfig()
    if not isinstance(circuit_or_gates, Circuit):
        circuit_or_gates = _gate_list(circuit_or_gates)  # read an iterable once
    result = _simulate_in_kernel(circuit_or_gates, placement, config)
    if result is None:
        result = simulate_reference(circuit_or_gates, placement, config)
    return result


def simulate_reference(
    circuit_or_gates,
    placement: Placement,
    config: Optional[SimulatorConfig] = None,
) -> SimulationResult:
    """The set-based oracle engine.

    Occupancy is a plain set of lattice cells and every stalled gate is
    re-tried at every completion event — the straightforward transcription
    of the paper's semantics that the compiled kernel must match byte for
    byte.  It also runs every point the kernel cannot plan.

    It additionally runs *shadow parking accounting*: on each failed route
    it records the watch cells the kernel parks the gate on and counts a
    wakeup whenever a retired braid frees one of them, which is the
    kernel's ``wakeups`` counter.  The watch rule, over the candidates the
    router tests:

    * each blocked route candidate contributes its lowest locked cell in
      row-major order;
    * with ``allow_detour`` a failed route watches the whole locked set
      (releasing any cell might open a detour);
    * a star watches its first failing leg;
    * a hop braid watches the failing leg's cells plus those of the direct
      route it falls back to.

    A retry that succeeds must coincide with a shadow wakeup, else the
    kernel would have missed it; this wakeup invariant is asserted, so a
    divergence in the parking logic fails loudly here rather than silently
    skewing results.
    """
    config = config or SimulatorConfig()
    durations = config.durations
    gates, mesh, router, hop_cells, dag = _prepare_simulation(
        circuit_or_gates, placement, config
    )
    n = len(gates)
    if n == 0:
        return _empty_result(placement)

    remaining_preds = [len(p) for p in dag.predecessors]
    ready_time = [0] * n
    ready: List[int] = [i for i in range(n) if remaining_preds[i] == 0]
    ready.sort()

    gate_start: List[int] = [-1] * n
    gate_end: List[int] = [-1] * n
    locked: Set[LatticeCell] = set()
    active: List[Tuple[int, int, FrozenSet[LatticeCell]]] = []
    now = 0
    completed = 0
    stall_events = 0
    stalled_ever: Set[int] = set()
    wakeups = 0

    # Shadow parking state: the watch cells each stalled gate is parked on,
    # and the gates whose watch cells intersect the cells freed at the
    # current event.
    shadow: Dict[int, Set[LatticeCell]] = {}
    woken: Set[int] = set()

    total_braid_cells = 0
    braided_gates = 0
    concurrent_braids = 0
    max_concurrent_braids = 0

    def try_route(index: int, gate: Gate) -> Optional[BraidPath]:
        """Attempt to route the braid of ``gate`` avoiding locked cells.

        The live ``locked`` set is passed to the router directly (it only
        reads it); copying it into a frozenset per attempt used to dominate
        retry cost on congested meshes.
        """
        if gate.kind is GateKind.CXX:
            return router.route_star(gate.qubits[0], gate.qubits[1:], locked)
        hop = hop_cells.get(index)
        return router.route_pair(gate.qubits[0], gate.qubits[1], locked, hop=hop)

    def blockers(
        source: LatticeCell, target: LatticeCell
    ) -> Optional[Set[LatticeCell]]:
        """Watch cells of one blocked route; None when a candidate is free."""
        if source == target:
            return None
        watch = set()
        for _, cells in router._pair_plan(source, target)[0]:
            hit = cells & locked
            if not hit:
                return None
            watch.add(min(hit))
        return set(locked) if config.allow_detour else watch

    def shadow_watch(index: int, gate: Gate) -> Set[LatticeCell]:
        """The watch cells the kernel parks this stalled gate on."""
        cell = mesh.qubit_cell
        if gate.kind is GateKind.CXX:
            control = cell(gate.qubits[0])
            for target in gate.qubits[1:]:
                watch = blockers(control, cell(target))
                if watch is not None:
                    return watch
            return set()
        source, target = cell(gate.qubits[0]), cell(gate.qubits[1])
        watch = None
        hop = hop_cells.get(index)
        if hop is not None:
            # The second leg is tried only once the first one routes.
            watch = blockers(source, hop)
            if watch is None:
                watch = blockers(hop, target)
        return (watch or set()) | (blockers(source, target) or set())

    while completed < n:
        if now > config.max_cycles:
            raise RuntimeError(
                f"simulation exceeded max_cycles={config.max_cycles}"
            )
        # ------------------------------------------------------------------
        # Start every ready gate we can at the current time, in program order.
        # ------------------------------------------------------------------
        still_ready: List[int] = []
        for index in ready:
            gate = gates[index]
            duration = gate.duration(durations)
            if gate.is_braided:
                path = try_route(index, gate)
                if path is None:
                    stall_events += 1
                    stalled_ever.add(index)
                    if index not in shadow or index in woken:
                        # First stall, or a woken retry that failed again:
                        # the kernel would (re-)park here.  A parked gate
                        # that was not woken keeps its watch cells, exactly
                        # like the kernel.
                        shadow[index] = shadow_watch(index, gate)
                    still_ready.append(index)
                    continue
                if index in shadow and index not in woken:
                    raise AssertionError(
                        f"wakeup invariant violated: gate {index} routed "
                        "although none of its recorded blockers was freed"
                    )
                shadow.pop(index, None)
                locked.update(path.cells)
                total_braid_cells += path.length
                braided_gates += 1
                concurrent_braids += 1
                max_concurrent_braids = max(max_concurrent_braids, concurrent_braids)
                cells: FrozenSet[LatticeCell] = path.cells
            else:
                cells = frozenset()
            gate_start[index] = now
            gate_end[index] = now + duration
            heapq.heappush(active, (now + duration, index, cells))
        ready = still_ready
        woken.clear()

        if not active:
            if ready:
                raise RoutingDeadlockError(
                    f"{len(ready)} gates cannot be routed on an otherwise idle mesh"
                )
            break

        # ------------------------------------------------------------------
        # Advance to the next completion event and retire everything there.
        # ------------------------------------------------------------------
        now = active[0][0]
        freed: Set[LatticeCell] = set()
        while active and active[0][0] == now:
            _, index, cells = heapq.heappop(active)
            if cells:
                locked.difference_update(cells)
                concurrent_braids -= 1
                freed.update(cells)
            completed += 1
            for successor in dag.successors[index]:
                remaining_preds[successor] -= 1
                ready_time[successor] = max(ready_time[successor], now)
                if remaining_preds[successor] == 0:
                    ready.append(successor)
        ready.sort()
        if freed:
            for index, watch in shadow.items():
                if not watch.isdisjoint(freed):
                    woken.add(index)
            wakeups += len(woken)

    latency = max(gate_end) if gate_end else 0
    stall_cycles = sum(
        max(0, start - ready_at)
        for start, ready_at in zip(gate_start, ready_time)
        if start >= 0
    )
    return SimulationResult(
        latency=latency,
        area=placement.area,
        gate_start=gate_start,
        gate_end=gate_end,
        stall_cycles=stall_cycles,
        stall_events=stall_events,
        braided_gates=braided_gates,
        max_concurrent_braids=max_concurrent_braids,
        total_braid_cells=total_braid_cells,
        distinct_stalls=len(stalled_ever),
        wakeups=wakeups,
    )


def simulate_latency(
    circuit_or_gates, placement: Placement, config: Optional[SimulatorConfig] = None
) -> int:
    """Convenience wrapper returning only the circuit latency in cycles."""
    return simulate(circuit_or_gates, placement, config).latency


# ----------------------------------------------------------------------
# Simulation memoization
# ----------------------------------------------------------------------
#: Content fingerprints of circuits already hashed, keyed weakly by the
#: circuit object so the memo dies with the circuit.  Guarded by the gate
#: count: the evaluation pipeline treats circuits as immutable once built,
#: but a circuit that grew since it was fingerprinted is re-hashed.
_circuit_fingerprints: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


#: Schema tag salted into every circuit fingerprint.  Content hashes that
#: feed cache keys must be tag-salted (:func:`~repro.persistutil
#: .tagged_fingerprint`) so an encoding change re-addresses old digests
#: instead of colliding with them.
_CIRCUIT_FINGERPRINT_TAG = "repro-msfu-circuit/v1"


def _gates_fingerprint(gates: Sequence[Gate]) -> str:
    """Stable content hash of a gate sequence.

    Hashes exactly the gate properties the simulator depends on (kind and
    qubit operands, in order) via the tag-salted blake2b scheme of
    :func:`~repro.persistutil.tagged_fingerprint`, so the digest is
    identical across processes and interpreter runs — unlike built-in
    ``hash()``, which is randomized per process for strings.
    """
    parts: List[bytes] = []
    for gate in gates:
        parts.append(gate.kind.value.encode())
        parts.append(b"(")
        parts.append(",".join(map(str, gate.qubits)).encode())
        parts.append(b")")
    return tagged_fingerprint(_CIRCUIT_FINGERPRINT_TAG, b"".join(parts), digest_size=16)


def circuit_fingerprint(circuit_or_gates) -> str:
    """Content hash of a circuit (or raw gate sequence) for cache keying.

    :class:`~repro.circuits.circuit.Circuit` instances memoize their digest
    (recomputed if the gate count changed since it was taken).
    """
    if isinstance(circuit_or_gates, Circuit):
        cached = _circuit_fingerprints.get(circuit_or_gates)
        if cached is not None and cached[0] == len(circuit_or_gates):
            return cached[1]
        digest = _gates_fingerprint(circuit_or_gates.gates)
        _circuit_fingerprints[circuit_or_gates] = (len(circuit_or_gates), digest)
        return digest
    return _gates_fingerprint(tuple(circuit_or_gates))


def _placement_key(placement: Placement) -> Tuple:
    """Hashable placement identity for cache keys.

    Delegates to :meth:`~repro.mapping.placement.Placement.fingerprint`,
    which memoizes the sorted-positions tuple on the placement itself —
    hot sweeps probe the :class:`SimulationCache` with the same placement
    object many times, and re-sorting ``positions.items()`` per probe was
    O(n log n) pure overhead.
    """
    return placement.fingerprint()


def _config_key(config: SimulatorConfig) -> Tuple:
    """Hashable key covering *every* :class:`SimulatorConfig` field.

    Derived from ``dataclasses.fields`` so a future config knob is included
    automatically (an unhashable new field fails loudly here rather than
    silently aliasing distinct configs in the cache); only the two mapping
    fields need explicit normalization.
    """
    key = []
    for f in dataclasses.fields(SimulatorConfig):
        value = getattr(config, f.name)
        if f.name == "durations":
            value = tuple(sorted((kind.value, int(v)) for kind, v in value.items()))
        elif f.name == "hops":
            value = tuple(sorted((index, tuple(cell)) for index, cell in value.items()))
        key.append((f.name, value))
    return tuple(key)


def simulation_cache_key(
    circuit_or_gates,
    placement: Placement,
    config: Optional[SimulatorConfig] = None,
) -> Tuple:
    """The memoization key for one simulation: (circuit hash, placement, config).

    Two simulations with equal keys are guaranteed to produce equal results
    (the simulator is deterministic), which is what makes
    :class:`SimulationCache` a pure optimization.
    """
    return (
        circuit_fingerprint(circuit_or_gates),
        _placement_key(placement),
        _config_key(config or SimulatorConfig()),
    )


class SimulationCache:
    """LRU memo of :class:`SimulationResult`s keyed by (circuit, placement, config).

    Sweeps frequently revisit the same simulation point — the same factory
    under the same mapping appears in multiple figures, in reuse/no-reuse
    comparisons, and in repeated CLI runs within one process.  Routing
    through a cache makes every repeat free.  Cached results must be treated
    as read-only (they are shared between hits).

    The cache is bounded (``max_entries``, LRU eviction) because results
    hold per-gate timing lists.  ``hits`` / ``misses`` counters make cache
    accounting exact for benchmarking.  It lives for one process; the
    :class:`~repro.api.store.ResultStore` is the cross-run layer.
    """

    def __init__(self, max_entries: int = 512) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Tuple, SimulationResult]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def simulate(
        self,
        circuit_or_gates,
        placement: Placement,
        config: Optional[SimulatorConfig] = None,
    ) -> SimulationResult:
        """Memoized :func:`simulate` — repeated sweep points never re-simulate."""
        if not isinstance(circuit_or_gates, Circuit):
            # Materialize one-shot iterables up front: fingerprinting reads
            # the gates once and the simulation must read the same gates.
            circuit_or_gates = tuple(circuit_or_gates)
        key = simulation_cache_key(circuit_or_gates, placement, config)
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return cached
        result = simulate(circuit_or_gates, placement, config)
        self.misses += 1
        self._insert(key, result)
        return result

    def lookup(
        self,
        circuit_or_gates,
        placement: Placement,
        config: Optional[SimulatorConfig] = None,
    ) -> Optional[SimulationResult]:
        """Probe the memo without simulating on a miss.

        A hit counts as a ``hits`` (exactly like :meth:`simulate`); a miss
        returns ``None`` *uncounted* — the caller is expected to compute the
        result some other way (e.g. through the batched engine) and insert
        it with :meth:`store_result`, which books the miss.  The batched
        evaluation pipeline uses this pair so its cache accounting is
        identical to per-request :meth:`simulate` calls.
        """
        if not isinstance(circuit_or_gates, Circuit):
            circuit_or_gates = tuple(circuit_or_gates)
        key = simulation_cache_key(circuit_or_gates, placement, config)
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return cached
        return None

    def store_result(
        self,
        circuit_or_gates,
        placement: Placement,
        config: Optional[SimulatorConfig],
        result: SimulationResult,
    ) -> None:
        """Insert an externally computed result, counted as a ``misses``.

        The counterpart of a :meth:`lookup` miss: simulation happened
        outside the cache (the batched engine), so book the miss here to
        keep the hit/miss counters byte-identical to an unbatched run.
        """
        if not isinstance(circuit_or_gates, Circuit):
            circuit_or_gates = tuple(circuit_or_gates)
        key = simulation_cache_key(circuit_or_gates, placement, config)
        self.misses += 1
        self._insert(key, result)

    def _insert(self, key: Tuple, result: SimulationResult) -> None:
        self._entries[key] = result
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
