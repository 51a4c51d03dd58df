"""Planarity analysis of factory interaction graphs.

Fig. 4 of the paper shows that a *single-level* factory has a planar
interaction graph, while the permutation edges of a multi-level factory
destroy planarity.  The hierarchical-stitching mapper exploits exactly this:
each round decomposes into disjoint planar module subgraphs which can be
embedded nearly optimally, and only the (non-planar) permutation edges need
special treatment.

This module wraps :mod:`networkx`'s planarity check and provides the
per-round / per-module planar decomposition used by the stitcher and the
test-suite.  networkx is imported only when a check or layout runs, and an
interaction :class:`~repro.graphs.adjacency.Graph` is converted on entry.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..distillation.block_code import Factory
from .adjacency import Graph, to_networkx
from .interaction import interaction_graph, subgraph_for_qubits


def is_planar(graph) -> bool:
    """Whether the graph (a :class:`Graph` or networkx graph) is planar."""
    import networkx as nx

    planar, _embedding = nx.check_planarity(to_networkx(graph), counterexample=False)
    return planar


def planar_embedding_positions(graph) -> Dict[int, Tuple[float, float]]:
    """A planar (crossing-free) straight-line drawing of a planar graph.

    Uses networkx's combinatorial-embedding based planar layout.  Raises
    :class:`networkx.NetworkXException` if the graph is not planar.
    """
    import networkx as nx

    positions = nx.planar_layout(to_networkx(graph))
    return {node: (float(x), float(y)) for node, (x, y) in positions.items()}


def round_interaction_graphs(factory: Factory) -> List[Graph]:
    """Interaction graph of each round of a factory (barriers excluded).

    Round ``r``'s graph contains the qubits active during that round and the
    edges induced by the round's own gates — permutation edges to the next
    round are *not* included because they belong to the boundary, not the
    round.
    """
    graphs: List[Graph] = []
    for round_index in range(1, factory.spec.levels + 1):
        gates = factory.round_gates(round_index)
        qubits = factory.round_qubits(round_index)
        graphs.append(interaction_graph(gates, include_qubits=qubits))
    return graphs


def module_interaction_graphs(factory: Factory, round_index: int) -> List[Graph]:
    """Per-module interaction subgraphs of one round.

    Because modules within a round never interact (Section VII-A), the
    round's graph is the disjoint union of these subgraphs; each of them is
    planar (Fig. 4a) and small enough to embed nearly optimally.
    """
    round_graph = round_interaction_graphs(factory)[round_index - 1]
    graphs: List[Graph] = []
    for module in factory.rounds[round_index - 1]:
        graphs.append(subgraph_for_qubits(round_graph, module.all_qubits))
    return graphs


def modules_are_disjoint(factory: Factory, round_index: int) -> bool:
    """Check that no edge of a round connects two different modules."""
    round_graph = round_interaction_graphs(factory)[round_index - 1]
    owner: Dict[int, int] = {}
    for module in factory.rounds[round_index - 1]:
        for qubit in module.all_qubits:
            owner[qubit] = module.module_index
    for a, b in round_graph.edges():
        if owner.get(a) != owner.get(b):
            return False
    return True


def permutation_edge_list(factory: Factory) -> List[Tuple[int, int]]:
    """The inter-round permutation edges as (producer qubit, first consumer gate qubit).

    Each permutation edge corresponds to the injection gates of the consumer
    module acting on a producer-round output qubit; we return the
    (producer output qubit, consumer ancilla qubit) pairs observed in the
    circuit so the stitcher can route them explicitly.
    """
    consumer_inputs = {
        edge.producer_qubit: (edge.consumer_module, edge.round_index)
        for edge in factory.permutation_edges
    }
    pairs: List[Tuple[int, int]] = []
    for gate in factory.circuit:
        if gate.is_barrier:
            continue
        for a, b in gate.interaction_pairs():
            if a in consumer_inputs:
                pairs.append((a, b))
            elif b in consumer_inputs:
                pairs.append((b, a))
    return pairs


def planar_round_fraction(factory: Factory) -> float:
    """Fraction of rounds whose interaction graph is planar.

    Single-level factories should report 1.0; the per-round graphs of
    multi-level factories should as well, because the non-planarity only
    arises once permutation edges are merged in (Fig. 4b vs 4c).
    """
    graphs = round_interaction_graphs(factory)
    if not graphs:
        return 1.0
    planar = sum(1 for graph in graphs if is_planar(graph))
    return planar / len(graphs)
