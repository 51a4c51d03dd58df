"""Multi-level block-code magic-state factory construction.

Section II-G of the paper describes the recursive block-code construction:
an ``l``-level factory built from Bravyi-Haah ``(3k+8) -> k`` modules
produces ``k^l`` output magic states from ``(3k+8)^l`` raw input states.
Within a round every module is an independent planar circuit; between rounds
the outputs of one round are *permuted* into the inputs of the next round
under the correlated-error constraint that each next-round module receives at
most one state from any previous-round module.

This module builds fully explicit, flat factory circuits together with the
structural metadata the mappers need:

* which logical qubits belong to which (round, module),
* which qubits are distillation outputs feeding the next round,
* the inter-round permutation edges (producer output -> consumer input),
* optional scheduling barriers separating rounds (Section V-A),
* a qubit reuse policy (Section V-B): fresh qubits each round (no-reuse /
  renaming) versus reusing the measured qubits of the previous round.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits.circuit import Circuit
from ..circuits.gates import Gate, barrier as barrier_gate
from .bravyi_haah import BravyiHaahSpec, append_bravyi_haah_module


class ReusePolicy(enum.Enum):
    """Qubit reuse policy between distillation rounds (Section V-B)."""

    #: Allocate fresh qubits for every round ("qubit renaming"): removes the
    #: sharing-after-measurement false dependencies at the cost of area.
    NO_REUSE = "no_reuse"
    #: Reuse the measured qubits of the previous round for the next round's
    #: ancillas and outputs: smaller area, extra false dependencies.
    REUSE = "reuse"


@dataclass(frozen=True)
class FactorySpec:
    """Parameters of a multi-level block-code factory.

    Attributes
    ----------
    k:
        Per-module output count of the underlying Bravyi-Haah protocol.
    levels:
        Number of recursive distillation rounds ``l``.
    """

    k: int
    levels: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")

    @property
    def module(self) -> BravyiHaahSpec:
        """The Bravyi-Haah module specification used in every round."""
        return BravyiHaahSpec(self.k)

    @property
    def capacity(self) -> int:
        """Total output magic states produced by the factory (k^l)."""
        return self.k**self.levels

    @property
    def num_raw_inputs(self) -> int:
        """Total raw magic states consumed ((3k+8)^l)."""
        return (3 * self.k + 8) ** self.levels

    def modules_in_round(self, round_index: int) -> int:
        """Number of Bravyi-Haah modules in 1-based round ``round_index``.

        Round ``r`` contains ``k^(r-1) * (3k+8)^(l-r)`` modules so that every
        output of round ``r`` feeds exactly one input slot of round ``r+1``.
        """
        if not 1 <= round_index <= self.levels:
            raise ValueError(
                f"round index must be in [1, {self.levels}], got {round_index}"
            )
        r = round_index
        return self.k ** (r - 1) * (3 * self.k + 8) ** (self.levels - r)

    def groups_in_round(self, round_index: int) -> int:
        """Number of permutation groups feeding round ``round_index + 1``.

        Consumers in round ``r+1`` are organised into groups of ``k`` modules,
        each group fed by a dedicated set of ``3k+8`` producers from round
        ``r``; this satisfies the correlated-error constraint of Section II-G.
        """
        if round_index == self.levels:
            return 1
        return max(1, self.modules_in_round(round_index + 1) // self.k)

    @classmethod
    def from_capacity(cls, capacity: int, levels: int) -> "FactorySpec":
        """Build a spec from a *total* factory capacity (``k^l`` states).

        The paper labels its multi-level sweeps by total capacity (4, 16, 36,
        64, 100 for two-level factories); this helper recovers ``k``.
        """
        if levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        k = round(capacity ** (1.0 / levels))
        if k**levels != capacity:
            raise ValueError(
                f"capacity {capacity} is not a perfect {levels}-th power"
            )
        return cls(k=k, levels=levels)


@dataclass
class ModuleInstance:
    """One Bravyi-Haah module instance inside a factory.

    Attributes
    ----------
    round_index:
        1-based distillation round the module belongs to.
    module_index:
        0-based index of the module within its round.
    raw_qubits:
        The ``3k+8`` input qubits.  For round 1 these are fresh raw-state
        qubits; for later rounds they are output qubits of the previous round.
    anc_qubits:
        The ``k+5`` ancillary qubits of the module.
    out_qubits:
        The ``k`` output qubits of the module.
    group_index:
        Index of the permutation group the module belongs to.
    """

    round_index: int
    module_index: int
    raw_qubits: Tuple[int, ...]
    anc_qubits: Tuple[int, ...]
    out_qubits: Tuple[int, ...]
    group_index: int = 0

    @property
    def local_qubits(self) -> Tuple[int, ...]:
        """Qubits owned by the module itself (ancillas + outputs)."""
        return self.anc_qubits + self.out_qubits

    @property
    def all_qubits(self) -> Tuple[int, ...]:
        """Every qubit the module touches, inputs included."""
        return self.raw_qubits + self.anc_qubits + self.out_qubits


@dataclass
class PermutationEdge:
    """One inter-round permutation connection.

    The output qubit ``producer_qubit`` (port ``producer_port`` of module
    ``producer_module`` in round ``round_index``) is consumed as input slot
    ``consumer_slot`` of module ``consumer_module`` in round
    ``round_index + 1``.
    """

    round_index: int
    producer_module: int
    producer_port: int
    producer_qubit: int
    consumer_module: int
    consumer_slot: int


#: A port map assigns, for every (producer module, consumer module) pair of a
#: round boundary, which output port of the producer feeds that consumer.
PortMap = Dict[Tuple[int, int], int]


@dataclass
class Factory:
    """A fully constructed multi-level block-code factory.

    Holds the flat circuit together with the structural metadata used by the
    hierarchical-stitching mapper and the evaluation harness.
    """

    spec: FactorySpec
    circuit: Circuit
    rounds: List[List[ModuleInstance]]
    permutation_edges: List[PermutationEdge]
    reuse_policy: ReusePolicy
    barriers_between_rounds: bool
    round_gate_slices: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def num_qubits(self) -> int:
        """Total logical qubits allocated by the factory circuit."""
        return self.circuit.num_qubits

    @property
    def output_qubits(self) -> Tuple[int, ...]:
        """The factory's final distilled output qubits (last round outputs)."""
        outputs: List[int] = []
        for module in self.rounds[-1]:
            outputs.extend(module.out_qubits)
        return tuple(outputs)

    def modules(self) -> List[ModuleInstance]:
        """All module instances across all rounds, in round order."""
        return [module for round_modules in self.rounds for module in round_modules]

    def module_of_qubit(self) -> Dict[int, Tuple[int, int]]:
        """Map each locally-owned qubit to its (round, module) coordinates."""
        owner: Dict[int, Tuple[int, int]] = {}
        for round_modules in self.rounds:
            for module in round_modules:
                for qubit in module.local_qubits:
                    owner[qubit] = (module.round_index, module.module_index)
        # Round-1 raw states belong to the module that consumes them.
        for module in self.rounds[0]:
            for qubit in module.raw_qubits:
                owner.setdefault(qubit, (module.round_index, module.module_index))
        return owner

    def round_gates(self, round_index: int) -> List[Gate]:
        """Gates belonging to 1-based round ``round_index`` (barriers excluded)."""
        if not self.round_gate_slices:
            raise ValueError("factory was built without round slice metadata")
        start, stop = self.round_gate_slices[round_index - 1]
        return [g for g in self.circuit.gates[start:stop] if not g.is_barrier]

    def round_qubits(self, round_index: int) -> Tuple[int, ...]:
        """All qubits active during round ``round_index`` (inputs included)."""
        qubits: List[int] = []
        seen = set()
        for module in self.rounds[round_index - 1]:
            for qubit in module.all_qubits:
                if qubit not in seen:
                    seen.add(qubit)
                    qubits.append(qubit)
        return tuple(qubits)


def default_port_map(spec: FactorySpec, round_index: int) -> PortMap:
    """The identity port assignment for the boundary after ``round_index``.

    Producer module ``i`` of a group sends its output port ``j`` to the
    ``j``-th consumer of the corresponding consumer group.  The
    hierarchical-stitching mapper later *reassigns* these ports to reduce
    permutation congestion (Section VII-B.2); any bijection per producer is
    functionally equivalent because outputs within a module are
    interchangeable.
    """
    port_map: PortMap = {}
    if round_index >= spec.levels:
        return port_map
    producers = spec.modules_in_round(round_index)
    consumers = spec.modules_in_round(round_index + 1)
    fan_in = 3 * spec.k + 8
    groups = max(1, consumers // spec.k)
    producers_per_group = producers // groups
    if producers_per_group != fan_in:
        raise ValueError(
            "inconsistent factory structure: "
            f"{producers} producers, {consumers} consumers, fan-in {fan_in}"
        )
    for group in range(groups):
        for local_producer in range(fan_in):
            producer = group * fan_in + local_producer
            for local_consumer in range(spec.k):
                consumer = group * spec.k + local_consumer
                port_map[(producer, consumer)] = local_consumer
    return port_map


def validate_port_map(spec: FactorySpec, round_index: int, port_map: PortMap) -> None:
    """Check that ``port_map`` is a valid port assignment for a boundary.

    Every producer must send each of its ``k`` output ports to exactly one
    distinct consumer, and every consumer must receive from ``3k+8`` distinct
    producers — the correlated-error constraint of Section II-G.
    """
    reference = default_port_map(spec, round_index)
    if set(port_map.keys()) != set(reference.keys()):
        raise ValueError("port map keys do not match the factory's wiring structure")
    by_producer: Dict[int, List[int]] = {}
    for (producer, _consumer), port in port_map.items():
        if not 0 <= port < spec.k:
            raise ValueError(f"port {port} out of range for k={spec.k}")
        by_producer.setdefault(producer, []).append(port)
    for producer, ports in by_producer.items():
        if len(set(ports)) != len(ports):
            raise ValueError(
                f"producer module {producer} sends the same output port twice"
            )


def build_factory(
    spec: FactorySpec,
    reuse_policy: ReusePolicy = ReusePolicy.NO_REUSE,
    barriers_between_rounds: bool = True,
    port_maps: Optional[Sequence[PortMap]] = None,
    name: Optional[str] = None,
) -> Factory:
    """Construct the flat circuit and metadata for a block-code factory.

    Parameters
    ----------
    spec:
        Factory parameters (``k`` and number of levels).
    reuse_policy:
        Whether later rounds reuse the measured qubits of earlier rounds
        (:class:`ReusePolicy`).
    barriers_between_rounds:
        Insert a machine-wide barrier after every round, exposing the
        per-round planarity the stitching mapper relies on (Section V-A).
    port_maps:
        Optional list of per-boundary port maps (one per round boundary,
        i.e. ``levels - 1`` entries).  Defaults to the identity assignment.
    """
    module_spec = spec.module
    circuit = Circuit(name or f"factory_k{spec.k}_l{spec.levels}")

    rounds: List[List[ModuleInstance]] = []
    permutation_edges: List[PermutationEdge] = []
    round_gate_slices: List[Tuple[int, int]] = []

    if port_maps is not None and len(port_maps) != spec.levels - 1:
        raise ValueError(
            f"expected {spec.levels - 1} port maps, got {len(port_maps)}"
        )

    # ------------------------------------------------------------------
    # Qubit allocation
    # ------------------------------------------------------------------
    fan_in = module_spec.num_raw_states
    previous_outputs: List[Tuple[int, int, int]] = []  # (module, port, qubit)
    reusable_pool: List[int] = []

    for round_index in range(1, spec.levels + 1):
        num_modules = spec.modules_in_round(round_index)
        round_modules: List[ModuleInstance] = []

        # Assemble the input qubits for this round.
        inputs_per_module: List[List[int]] = [[] for _ in range(num_modules)]
        if round_index == 1:
            raw_register = circuit.add_register(
                f"r{round_index}_raw", num_modules * fan_in
            )
            for module_index in range(num_modules):
                start = module_index * fan_in
                inputs_per_module[module_index] = [
                    raw_register[start + slot] for slot in range(fan_in)
                ]
        else:
            boundary = round_index - 1
            port_map = (
                port_maps[boundary - 1]
                if port_maps is not None
                else default_port_map(spec, boundary)
            )
            validate_port_map(spec, boundary, port_map)
            outputs_by_module: Dict[int, Dict[int, int]] = {}
            for producer_module, port, qubit in previous_outputs:
                outputs_by_module.setdefault(producer_module, {})[port] = qubit
            slot_counters = [0] * num_modules
            for (producer, consumer), port in sorted(port_map.items()):
                qubit = outputs_by_module[producer][port]
                slot = slot_counters[consumer]
                slot_counters[consumer] += 1
                inputs_per_module[consumer].append(qubit)
                permutation_edges.append(
                    PermutationEdge(
                        round_index=boundary,
                        producer_module=producer,
                        producer_port=port,
                        producer_qubit=qubit,
                        consumer_module=consumer,
                        consumer_slot=slot,
                    )
                )
            for consumer, count in enumerate(slot_counters):
                if count != fan_in:
                    raise ValueError(
                        f"consumer module {consumer} received {count} inputs, "
                        f"expected {fan_in}"
                    )

        # Allocate (or reuse) the ancilla and output qubits of this round.
        local_needed = num_modules * module_spec.num_module_qubits
        local_qubits: List[int] = []
        if reuse_policy is ReusePolicy.REUSE and reusable_pool:
            take = min(len(reusable_pool), local_needed)
            local_qubits.extend(reusable_pool[:take])
            reusable_pool = reusable_pool[take:]
        remaining = local_needed - len(local_qubits)
        if remaining > 0:
            fresh = circuit.add_register(f"r{round_index}_work", remaining)
            local_qubits.extend(fresh.qubits)

        cursor = 0
        group_size = max(1, num_modules // max(1, spec.groups_in_round(round_index)))
        for module_index in range(num_modules):
            anc_qubits = tuple(
                local_qubits[cursor : cursor + module_spec.num_ancillas]
            )
            cursor += module_spec.num_ancillas
            out_qubits = tuple(
                local_qubits[cursor : cursor + module_spec.num_outputs]
            )
            cursor += module_spec.num_outputs
            round_modules.append(
                ModuleInstance(
                    round_index=round_index,
                    module_index=module_index,
                    raw_qubits=tuple(inputs_per_module[module_index]),
                    anc_qubits=anc_qubits,
                    out_qubits=out_qubits,
                    group_index=module_index // group_size,
                )
            )

        # ------------------------------------------------------------------
        # Gate emission for this round
        # ------------------------------------------------------------------
        start_gate = len(circuit)
        for module in round_modules:
            _append_module_gates(circuit, module_spec, module)
        stop_gate = len(circuit)
        round_gate_slices.append((start_gate, stop_gate))

        if barriers_between_rounds and round_index < spec.levels:
            circuit.append(barrier_gate(tag=f"barrier.r{round_index}"))

        # Outputs of this round feed the next round.
        previous_outputs = [
            (module.module_index, port, qubit)
            for module in round_modules
            for port, qubit in enumerate(module.out_qubits)
        ]
        # Everything except the forwarded outputs is measured and reusable.
        forwarded = {qubit for _m, _p, qubit in previous_outputs}
        round_reusable = [
            qubit
            for module in round_modules
            for qubit in module.all_qubits
            if qubit not in forwarded
        ]
        reusable_pool.extend(round_reusable)
        rounds.append(round_modules)

    return Factory(
        spec=spec,
        circuit=circuit,
        rounds=rounds,
        permutation_edges=permutation_edges,
        reuse_policy=reuse_policy,
        barriers_between_rounds=barriers_between_rounds,
        round_gate_slices=round_gate_slices,
    )


def _append_module_gates(
    circuit: Circuit, module_spec: BravyiHaahSpec, module: ModuleInstance
) -> None:
    """Emit one module's gates onto pre-allocated flat qubit tuples."""

    class _TupleRegister:
        """Adapter exposing a qubit tuple through the register indexing API."""

        def __init__(self, qubits: Tuple[int, ...]) -> None:
            self._qubits = qubits

        def __len__(self) -> int:
            return len(self._qubits)

        def __getitem__(self, index: int) -> int:
            return self._qubits[index]

    tag = f"r{module.round_index}.m{module.module_index}"
    append_bravyi_haah_module(
        circuit,
        module_spec,
        _TupleRegister(module.raw_qubits),
        _TupleRegister(module.anc_qubits),
        _TupleRegister(module.out_qubits),
        tag=tag,
    )


def build_single_level_factory(
    k: int, name: Optional[str] = None
) -> Factory:
    """Convenience constructor for a single-level factory of capacity ``k``."""
    return build_factory(FactorySpec(k=k, levels=1), name=name)


def build_two_level_factory(
    capacity: int,
    reuse_policy: ReusePolicy = ReusePolicy.NO_REUSE,
    barriers_between_rounds: bool = True,
    port_maps: Optional[Sequence[PortMap]] = None,
    name: Optional[str] = None,
) -> Factory:
    """Convenience constructor for a two-level factory of total ``capacity``.

    ``capacity`` must be a perfect square (4, 16, 36, 64, 100 in the paper's
    sweeps); the per-module ``k`` is its square root.
    """
    spec = FactorySpec.from_capacity(capacity, levels=2)
    return build_factory(
        spec,
        reuse_policy=reuse_policy,
        barriers_between_rounds=barriers_between_rounds,
        port_maps=port_maps,
        name=name,
    )
