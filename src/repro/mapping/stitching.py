"""Hierarchical stitching mapper (Section VII).

Hierarchical stitching (HS) is the paper's synthesis of the scheduling and
mapping techniques: it exploits the fact that each round of a block-code
factory decomposes into disjoint planar modules that can be embedded nearly
optimally, and spends its optimisation effort on the *inter-round permutation
step* that dominates multi-level factories.  The procedure, following the
flow chart of Fig. 3:

1. **Map each module** of a round with a single-level technique (the
   hand-optimized linear block layout by default, or recursive graph
   partitioning of the module's planar interaction graph).
2. **Concatenate and arrange modules**: module blocks are packed onto the
   grid with the *later-round modules in the centre* and the producing
   modules around them, so the permuted outputs converge inward instead of
   criss-crossing the machine (the embedding of Fig. 8).
3. **Port reassignment**: within each producer module the k output states
   are interchangeable, so the output port each consumer receives is chosen
   (by solving a small assignment problem per producer) to minimise the
   distance the permuted state must travel.
4. **Intermediate-hop routing** of the permutation braids: each permutation
   braid may be routed through a Valiant-style intermediate destination; the
   hop locations are either random or annealed with the same force-directed
   ideas (edge-distance centroids, repulsion, rotation) to spread the
   permutation braids over the mesh (Fig. 9c/9d).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..distillation.block_code import (
    Factory,
    FactorySpec,
    ModuleInstance,
    PortMap,
    ReusePolicy,
    build_factory,
    default_port_map,
)
from ..graphs.interaction import interaction_graph
from ..graphs.metrics import segments_intersect
from ..kernels import metrics as _metrics_kernel
from .assignment import linear_sum_assignment
from .force_directed import ForceDirectedConfig, force_directed_refine
from .graph_partition import graph_partition_placement
from .linear import linear_module_cells, linear_module_shape
from .placement import Cell, Placement
from ..circuits.gates import GateKind


#: Intermediate-hop policies for permutation braids, in the order of the
#: paper's Fig. 9d legend.
HOP_MODES = ("none", "random", "annealed_random", "annealed_midpoint")

#: Per-module embedding techniques.
MODULE_MAPPERS = ("linear", "graph_partition")


@dataclass
class StitchingConfig:
    """Tuning knobs of the hierarchical stitching mapper."""

    #: Per-module embedding technique: "linear" (hand-optimized block layout)
    #: or "graph_partition" (recursive bisection of the module's planar graph).
    module_mapper: str = "linear"
    #: Optionally refine each module block with a short force-directed pass.
    refine_modules: bool = False
    #: Intermediate-hop policy for permutation braids, one of
    #: :data:`HOP_MODES` ("annealed_midpoint" is the paper's best variant).
    hop_mode: str = "annealed_midpoint"
    #: Annealing sweeps over the permutation hops.
    hop_sweeps: int = 4
    #: Empty tile rows/columns left between adjacent module blocks.  The
    #: doubled channel lattice already provides a routing corridor between
    #: every pair of adjacent tiles, so the default packs blocks tightly.
    gap: int = 0
    #: Whether to perform the port-reassignment optimisation.
    reassign_ports: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        """Reject values the mapper cannot run with, naming the field."""
        for name, choices in (
            ("module_mapper", MODULE_MAPPERS),
            ("hop_mode", HOP_MODES),
        ):
            value = getattr(self, name)
            if value not in choices:
                raise ValueError(
                    f"StitchingConfig.{name} must be one of "
                    f"{', '.join(map(repr, choices))}, got {value!r}"
                )
        for name in ("refine_modules", "reassign_ports"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise TypeError(f"StitchingConfig.{name} must be a bool, got {value!r}")
        for name in ("hop_sweeps", "gap", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"StitchingConfig.{name} must be an int, got {value!r}")
            if name != "seed" and value < 0:
                raise ValueError(f"StitchingConfig.{name} must be >= 0, got {value!r}")


@dataclass
class StitchedMapping:
    """The output of hierarchical stitching.

    Attributes
    ----------
    factory:
        The factory (rebuilt with the reassigned port maps) whose circuit the
        placement and hops refer to.
    placement:
        The qubit placement.
    hops:
        Map from gate index (in ``factory.circuit``) to the intermediate tile
        cell the permutation braid should route through; feed this to
        :class:`~repro.routing.simulator.SimulatorConfig`.
    port_maps:
        The chosen per-boundary port maps.
    """

    factory: Factory
    placement: Placement
    hops: Dict[int, Cell]
    port_maps: List[PortMap] = field(default_factory=list)


# ----------------------------------------------------------------------
# Module embedding
# ----------------------------------------------------------------------
def _module_block_placement(
    factory: Factory,
    module: ModuleInstance,
    config: StitchingConfig,
) -> Placement:
    """Near-optimal placement of a single module in local (block) coordinates.

    Only qubits owned by the module and, for round 1, its raw inputs are
    placed; inputs of later rounds already live in previous-round blocks.
    """
    spec = factory.spec.module
    place_raw = module.round_index == 1

    if config.module_mapper == "linear":
        if place_raw:
            height, width = linear_module_shape(spec)
            cells = linear_module_cells(spec)
            placement = Placement(width=width, height=height)
            for local_index, qubit in enumerate(module.anc_qubits):
                placement.place(qubit, cells["anc"][local_index])
            for local_index, qubit in enumerate(module.out_qubits):
                placement.place(qubit, cells["out"][local_index])
            for local_index, qubit in enumerate(module.raw_qubits):
                placement.place(qubit, cells["raw"][local_index])
        else:
            # Later-round modules receive their inputs from other blocks, so
            # only the ancillas and outputs need cells: a compact two-row
            # block with every output directly above the ancilla it talks to.
            width = spec.num_ancillas
            placement = Placement(width=width, height=2)
            for local_index, qubit in enumerate(module.anc_qubits):
                placement.place(qubit, (1, local_index))
            for local_index, qubit in enumerate(module.out_qubits):
                placement.place(qubit, (0, 5 + local_index))
    elif config.module_mapper == "graph_partition":
        gates = [
            gate
            for gate in factory.round_gates(module.round_index)
            if gate.tag == f"r{module.round_index}.m{module.module_index}"
        ]
        qubits = list(module.local_qubits)
        if place_raw:
            qubits = list(module.all_qubits)
        graph = interaction_graph(gates, include_qubits=qubits)
        graph = graph.subgraph(qubits).copy()
        placement = graph_partition_placement(
            graph, qubits=qubits, seed=config.seed, slack=1.15
        )
    else:
        raise ValueError(f"unknown module mapper {config.module_mapper!r}")

    if config.refine_modules:
        gates = [
            gate
            for gate in factory.round_gates(module.round_index)
            if gate.tag == f"r{module.round_index}.m{module.module_index}"
        ]
        graph = interaction_graph(gates, include_qubits=list(placement.positions))
        graph = graph.subgraph(list(placement.positions)).copy()
        placement = force_directed_refine(
            graph,
            placement,
            ForceDirectedConfig(sweeps=8, use_communities=False, seed=config.seed),
        )
    return placement


# ----------------------------------------------------------------------
# Module arrangement (concatenation with later rounds in the centre)
# ----------------------------------------------------------------------
def _arrange_blocks(
    factory: Factory,
    blocks: Dict[Tuple[int, int], Placement],
    gap: int,
) -> Placement:
    """Pack all module blocks onto one grid, later rounds in the centre.

    Block slots form a near-square grid; slots are ranked by distance to the
    grid centre and the modules of later rounds claim the most central slots,
    which shortens the inter-round permutation braids (cf. Fig. 8).
    """
    block_keys = list(blocks.keys())
    block_width = max(p.width for p in blocks.values())
    block_height = max(p.height for p in blocks.values())
    count = len(block_keys)
    # Choose the slot-grid shape that wastes the least area while staying
    # close to square (a long thin arrangement would stretch the braids).
    best_columns = max(1, math.ceil(math.sqrt(count)))
    best_area = None
    for columns_candidate in range(
        max(1, best_columns - 2), best_columns + 3
    ):
        rows_candidate = math.ceil(count / columns_candidate)
        area = (rows_candidate * (block_height + gap)) * (
            columns_candidate * (block_width + gap)
        )
        if best_area is None or area < best_area:
            best_area = area
            best_columns = columns_candidate
    columns = best_columns
    rows = math.ceil(count / columns)

    slots = [(r, c) for r in range(rows) for c in range(columns)]
    centre = ((rows - 1) / 2.0, (columns - 1) / 2.0)
    slots.sort(
        key=lambda slot: (math.hypot(slot[0] - centre[0], slot[1] - centre[1]), slot)
    )

    # Later rounds first in the slot ranking (they get the central slots).
    ordered_keys = sorted(block_keys, key=lambda key: (-key[0], key[1]))
    assignment = dict(zip(ordered_keys, slots))

    total_width = columns * (block_width + gap) - gap
    total_height = rows * (block_height + gap) - gap
    combined = Placement(width=max(1, total_width), height=max(1, total_height))
    for key, block in blocks.items():
        slot_row, slot_col = assignment[key]
        row_offset = slot_row * (block_height + gap)
        col_offset = slot_col * (block_width + gap)
        for qubit, (row, col) in block.positions.items():
            if qubit not in combined.positions:
                combined.place(qubit, (row + row_offset, col + col_offset))
    return combined


# ----------------------------------------------------------------------
# Port reassignment
# ----------------------------------------------------------------------
def _reassign_ports(
    factory: Factory, placement: Placement
) -> List[PortMap]:
    """Choose which output port of each producer feeds each consumer.

    For every producer module the k output qubits must go to k distinct
    consumer modules; the assignment minimising the total Manhattan distance
    from each output qubit's position to its consumer's input centroid is
    found by the exact shortest-augmenting-path solver of
    :mod:`repro.mapping.assignment`, independently per producer since
    producers do not share output qubits.
    """
    spec = factory.spec
    port_maps: List[PortMap] = []
    for boundary in range(1, spec.levels):
        producers = factory.rounds[boundary - 1]
        consumers = factory.rounds[boundary]
        consumer_centroids: Dict[int, Tuple[float, float]] = {}
        for consumer in consumers:
            cells = [
                placement.positions[q]
                for q in consumer.local_qubits
                if q in placement.positions
            ]
            if not cells:
                consumer_centroids[consumer.module_index] = (0.0, 0.0)
            else:
                consumer_centroids[consumer.module_index] = (
                    sum(c[0] for c in cells) / len(cells),
                    sum(c[1] for c in cells) / len(cells),
                )

        reference = default_port_map(spec, boundary)
        consumers_of_producer: Dict[int, List[int]] = {}
        for (producer_index, consumer_index) in reference:
            consumers_of_producer.setdefault(producer_index, []).append(consumer_index)

        port_map: PortMap = {}
        for producer in producers:
            target_consumers = sorted(consumers_of_producer[producer.module_index])
            cost_matrix = []
            for port, out_qubit in enumerate(producer.out_qubits):
                out_position = placement.positions[out_qubit]
                row_costs = []
                for consumer_index in target_consumers:
                    centroid = consumer_centroids[consumer_index]
                    row_costs.append(
                        abs(out_position[0] - centroid[0])
                        + abs(out_position[1] - centroid[1])
                    )
                cost_matrix.append(row_costs)
            row_indices, col_indices = linear_sum_assignment(cost_matrix)
            for port, consumer_slot in zip(row_indices, col_indices):
                consumer_index = target_consumers[consumer_slot]
                port_map[(producer.module_index, consumer_index)] = port
        port_maps.append(port_map)
    return port_maps


# ----------------------------------------------------------------------
# Permutation braids and intermediate hops
# ----------------------------------------------------------------------
def permutation_gate_indices(factory: Factory) -> List[int]:
    """Indices of the gates that realise the inter-round permutation step.

    These are the injection gates of rounds beyond the first whose consumed
    state is an output qubit of the previous round; they are the braids whose
    congestion the intermediate-hop optimisation targets.
    """
    producer_outputs: Set[int] = {
        edge.producer_qubit for edge in factory.permutation_edges
    }
    indices: List[int] = []
    for index, gate in enumerate(factory.circuit):
        if gate.kind in (GateKind.INJECT_T, GateKind.INJECT_TDAG):
            if gate.qubits[0] in producer_outputs:
                indices.append(index)
    return indices


def _free_cells(placement: Placement) -> List[Cell]:
    free = placement.free_cells()
    if free:
        return free
    return [
        (row, col) for row in range(placement.height) for col in range(placement.width)
    ]


def _hop_congestion(
    segments: Dict[int, List[Tuple[Tuple[float, float], Tuple[float, float]]]],
    index: int,
) -> float:
    """Crossing count of one braid's polyline against all other braids'."""
    crossings = 0.0
    mine = segments[index]
    for other_index, other_segments in segments.items():
        if other_index == index:
            continue
        for a1, a2 in mine:
            for b1, b2 in other_segments:
                if segments_intersect(a1, a2, b1, b2):
                    crossings += 1.0
    return crossings


def _segments_for(
    source: Cell, target: Cell, hop: Optional[Cell]
) -> List[Tuple[Tuple[float, float], Tuple[float, float]]]:
    src = (float(source[0]), float(source[1]))
    dst = (float(target[0]), float(target[1]))
    if hop is None:
        return [(src, dst)]
    mid = (float(hop[0]), float(hop[1]))
    return [(src, mid), (mid, dst)]


def _initial_hops(
    factory: Factory,
    placement: Placement,
    config: StitchingConfig,
    indices: List[int],
    rng: random.Random,
) -> Tuple[List[Cell], Dict[int, Tuple[Cell, Cell]], Dict[int, Cell]]:
    """Free cells, braid endpoints and starting hops (one draw per random hop)."""
    free = _free_cells(placement)
    hops: Dict[int, Cell] = {}
    endpoints: Dict[int, Tuple[Cell, Cell]] = {}
    for index in indices:
        gate = factory.circuit[index]
        source = placement.positions[gate.qubits[0]]
        target = placement.positions[gate.qubits[1]]
        endpoints[index] = (source, target)
        if config.hop_mode == "random" or config.hop_mode == "annealed_random":
            hops[index] = free[rng.randrange(len(free))]
        else:  # midpoint-based
            hops[index] = (
                (source[0] + target[0]) // 2,
                (source[1] + target[1]) // 2,
            )
    return free, endpoints, hops


#: The 24 local moves tried around a hop, in the annealer's scan order.
_HOP_OFFSETS = [
    (dr, dc)
    for dr in (-2, -1, 0, 1, 2)
    for dc in (-2, -1, 0, 1, 2)
    if (dr, dc) != (0, 0)
]


def optimize_permutation_hops(
    factory: Factory,
    placement: Placement,
    config: Optional[StitchingConfig] = None,
) -> Dict[int, Cell]:
    """Assign (and optionally anneal) intermediate hops for permutation braids.

    Returns a map from gate index to the hop *tile* cell, suitable for
    :class:`~repro.routing.simulator.SimulatorConfig.hops`.  The annealed
    modes start from a random cell or the braid's midpoint and then locally
    move each hop to reduce the number of crossings among the permutation
    braids' polylines, weighted against the extra distance the hop adds.

    Each annealing sweep runs in one call of the metrics kernel
    (``mc_hop_sweep``), which scores the candidates of every visit as
    exact integers.  The random draws stay here, in the order of
    :func:`optimize_permutation_hops_reference`, so the hops are identical
    to the oracle's; without the kernel the oracle runs instead.
    """
    kernel = _metrics_kernel.load()
    if kernel is None:
        return optimize_permutation_hops_reference(factory, placement, config)
    config = config or StitchingConfig()
    indices = permutation_gate_indices(factory)
    if not indices or config.hop_mode == "none":
        return {}

    rng = random.Random(config.seed)
    free, endpoints, hops = _initial_hops(factory, placement, config, indices, rng)
    if config.hop_mode == "random":
        return hops

    # Braid slot s is gate indices[s]: its endpoint cells, its hop and the
    # two segment rows of its polyline, which the kernel updates in place.
    braids = len(indices)
    ends = np.array(
        [endpoints[index][0] + endpoints[index][1] for index in indices],
        dtype=np.int64,
    )
    cells = np.array([hops[index] for index in indices], dtype=np.int64)
    segments = np.empty((braids, 2, 4))
    segments[:, 0, :2] = ends[:, :2]
    segments[:, 0, 2:] = cells
    segments[:, 1, :2] = cells
    segments[:, 1, 2:] = ends[:, 2:]
    order = np.empty(braids, dtype=np.int64)
    draws = np.empty((braids, 2), dtype=np.int64)
    near = np.empty(4 * braids, dtype=np.int64)
    for _sweep in range(config.hop_sweeps):
        # shuffle permutes by position alone, so shuffling the slots draws
        # what the oracle's shuffle of the gate indices draws.  No draw
        # depends on a hop, so each visit's free cell is drawn up front.
        slots = list(range(braids))
        rng.shuffle(slots)
        order[:] = slots
        draws[:] = [free[rng.randrange(len(free))] for _ in slots]
        kernel.hop_sweep(
            braids,
            placement.height,
            placement.width,
            ends.ctypes.data,
            cells.ctypes.data,
            segments.ctypes.data,
            order.ctypes.data,
            draws.ctypes.data,
            near.ctypes.data,
        )
    return {index: (row, col) for index, (row, col) in zip(indices, cells.tolist())}


def optimize_permutation_hops_reference(
    factory: Factory,
    placement: Placement,
    config: Optional[StitchingConfig] = None,
) -> Dict[int, Cell]:
    """Scalar oracle for :func:`optimize_permutation_hops`.

    Scores every candidate hop with pairwise :func:`segments_intersect`
    calls and keeps a candidate only when it is strictly cheaper.
    """
    config = config or StitchingConfig()
    indices = permutation_gate_indices(factory)
    if not indices or config.hop_mode == "none":
        return {}

    rng = random.Random(config.seed)
    free, endpoints, hops = _initial_hops(factory, placement, config, indices, rng)
    if config.hop_mode == "random":
        return hops

    # Annealing: locally move each hop to reduce crossings + detour length.
    segments = {
        index: _segments_for(endpoints[index][0], endpoints[index][1], hops[index])
        for index in indices
    }

    def hop_cost(index: int, hop: Cell) -> float:
        source, target = endpoints[index]
        detour = (
            abs(source[0] - hop[0])
            + abs(source[1] - hop[1])
            + abs(hop[0] - target[0])
            + abs(hop[1] - target[1])
            - abs(source[0] - target[0])
            - abs(source[1] - target[1])
        )
        segments[index] = _segments_for(source, target, hop)
        crossings = _hop_congestion(segments, index)
        return 4.0 * crossings + 0.5 * detour

    for _sweep in range(config.hop_sweeps):
        order = list(indices)
        rng.shuffle(order)
        for index in order:
            current = hops[index]
            current_cost = hop_cost(index, current)
            best_hop = current
            best_cost = current_cost
            candidates = [
                (current[0] + dr, current[1] + dc) for dr, dc in _HOP_OFFSETS
            ]
            candidates.append(free[rng.randrange(len(free))])
            for candidate in candidates:
                if not (
                    0 <= candidate[0] < placement.height
                    and 0 <= candidate[1] < placement.width
                ):
                    continue
                cost = hop_cost(index, candidate)
                if cost < best_cost:
                    best_cost = cost
                    best_hop = candidate
            hops[index] = best_hop
            segments[index] = _segments_for(
                endpoints[index][0], endpoints[index][1], best_hop
            )
    return hops


# ----------------------------------------------------------------------
# Top-level procedure
# ----------------------------------------------------------------------
def hierarchical_stitching(
    spec: FactorySpec,
    reuse_policy: ReusePolicy = ReusePolicy.NO_REUSE,
    config: Optional[StitchingConfig] = None,
    factory: Optional[Factory] = None,
) -> StitchedMapping:
    """Run the full hierarchical stitching procedure for a factory spec.

    Builds the factory (with barriers between rounds, which expose the
    per-round planarity), embeds and arranges the module blocks, reassigns
    output ports, rebuilds the factory circuit with the chosen port maps and
    finally optimises the permutation-braid hops.

    An already-built ``factory`` (same spec/reuse, built with barriers) may
    be supplied to skip the initial construction — the evaluation pipeline
    uses this to share one base factory across every mapper in a sweep.  The
    given factory is only read; port reassignment still produces a rebuilt
    copy.
    """
    config = config or StitchingConfig()
    if factory is not None:
        if (
            factory.spec != spec
            or factory.reuse_policy is not reuse_policy
            or not factory.barriers_between_rounds
        ):
            raise ValueError(
                "supplied factory does not match the requested spec/reuse "
                "(it must be built with barriers_between_rounds=True)"
            )
    else:
        factory = build_factory(
            spec, reuse_policy=reuse_policy, barriers_between_rounds=True
        )

    blocks: Dict[Tuple[int, int], Placement] = {}
    for module in factory.modules():
        block = _module_block_placement(factory, module, config)
        blocks[(module.round_index, module.module_index)] = block
    placement = _arrange_blocks(factory, blocks, gap=config.gap)

    port_maps: List[PortMap] = []
    if config.reassign_ports and spec.levels > 1:
        port_maps = _reassign_ports(factory, placement)
        factory = build_factory(
            spec,
            reuse_policy=reuse_policy,
            barriers_between_rounds=True,
            port_maps=port_maps,
        )

    hops = optimize_permutation_hops(factory, placement, config)
    return StitchedMapping(
        factory=factory, placement=placement, hops=hops, port_maps=port_maps
    )


def stitched_mapping_for_factory(
    factory: Factory, config: Optional[StitchingConfig] = None
) -> StitchedMapping:
    """Stitching for an already-built factory, keeping its wiring fixed.

    Port reassignment is skipped (it would change the circuit); module
    embedding, central arrangement and hop optimisation are still applied.
    Useful when comparing mappers on the exact same circuit instance.
    """
    config = config or StitchingConfig()
    blocks: Dict[Tuple[int, int], Placement] = {}
    for module in factory.modules():
        block = _module_block_placement(factory, module, config)
        blocks[(module.round_index, module.module_index)] = block
    placement = _arrange_blocks(factory, blocks, gap=config.gap)
    hops = optimize_permutation_hops(factory, placement, config)
    return StitchedMapping(factory=factory, placement=placement, hops=hops)
