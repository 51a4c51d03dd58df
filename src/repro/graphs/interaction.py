"""Program interaction graphs.

Section VI of the paper defines the *program interaction graph* ``G = (V, E)``
of a schedule: vertices are the logical qubits of the computation and edges
are the two-qubit interactions (CNOT braids, injections, and the
control-target pairs of multi-target CXX gates).  All of the paper's mapping
algorithms operate on this graph, so this module is the bridge between the
circuit IR and the mappers.

Edges carry a ``weight`` attribute equal to the number of gates between the
endpoints, and a ``gates`` attribute listing the gate indices, so mappers can
weight frequently-interacting pairs more heavily and analyses can recover the
originating schedule positions.

The graph is a :class:`~repro.graphs.adjacency.Graph`, which stores and
iterates its nodes, neighbours and edges exactly as ``networkx.Graph`` would
after the same calls, so every mapper's tie-breaks are the ones a networkx
graph gives.  Building and mapping it imports no networkx.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..circuits.circuit import Circuit
from ..circuits.gates import Gate
from .adjacency import Graph


def interaction_graph(
    circuit_or_gates, include_qubits: Optional[Iterable[int]] = None
) -> Graph:
    """Build the interaction graph of a circuit or gate sequence.

    Parameters
    ----------
    circuit_or_gates:
        A :class:`~repro.circuits.circuit.Circuit` or an iterable of gates.
    include_qubits:
        Optional collection of qubits that must appear as vertices even if
        they participate in no two-qubit gate (e.g. the raw-state qubits of a
        factory round, which the mapper still has to place).
    """
    gates: Sequence[Gate]
    if isinstance(circuit_or_gates, Circuit):
        gates = circuit_or_gates.gates
        default_vertices: Iterable[int] = range(circuit_or_gates.num_qubits)
    else:
        gates = tuple(circuit_or_gates)
        default_vertices = ()

    graph = Graph()
    vertices = include_qubits if include_qubits is not None else default_vertices
    for vertex in vertices:
        graph.add_node(vertex)

    for gate_index, gate in enumerate(gates):
        if gate.is_barrier:
            continue
        for qubit in gate.qubits:
            graph.add_node(qubit)
        for a, b in gate.interaction_pairs():
            if graph.has_edge(a, b):
                graph[a][b]["weight"] += 1
                graph[a][b]["gates"].append(gate_index)
            else:
                graph.add_edge(a, b, weight=1, gates=[gate_index])
    return graph


def interaction_edges(circuit_or_gates) -> List[Tuple[int, int]]:
    """Flat list of two-qubit interaction pairs, one per gate occurrence."""
    gates: Sequence[Gate]
    if isinstance(circuit_or_gates, Circuit):
        gates = circuit_or_gates.gates
    else:
        gates = tuple(circuit_or_gates)
    edges: List[Tuple[int, int]] = []
    for gate in gates:
        if gate.is_barrier:
            continue
        edges.extend(gate.interaction_pairs())
    return edges


def degree_statistics(graph: Graph) -> Dict[str, float]:
    """Basic degree statistics used in the qubit-reuse analysis (Section VIII-C).

    Returns a dict with ``min``, ``max`` and ``mean`` vertex degree.  The
    paper observes that qubit reuse increases the average degree of the
    interaction graph (false dependencies add edges), which is why the
    force-directed mapper prefers the no-reuse policy for large factories.
    """
    if graph.number_of_nodes() == 0:
        return {"min": 0.0, "max": 0.0, "mean": 0.0}
    degrees = [degree for _node, degree in graph.degree()]
    return {
        "min": float(min(degrees)),
        "max": float(max(degrees)),
        "mean": float(sum(degrees)) / len(degrees),
    }


def subgraph_for_qubits(graph: Graph, qubits: Iterable[int]) -> Graph:
    """Induced subgraph on ``qubits`` (copied, so it can be mutated freely)."""
    return graph.subgraph(qubits)
