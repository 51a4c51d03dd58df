"""Unit tests for interaction-graph construction (repro.graphs.interaction).

Evaluation does not import networkx: two fresh-interpreter checks run
every registered mapper at levels 1 and 2, once watching ``sys.modules``
and once with networkx made unimportable.  The graph's iteration order is
checked against a networkx oracle in ``test_graph_fuzz.py``.
"""

import json

from repro.api import EvaluationRequest, Pipeline
from repro.circuits import Circuit, barrier, cnot, cxx, h, inject_t
from repro.graphs import (
    degree_statistics,
    interaction_edges,
    interaction_graph,
    subgraph_for_qubits,
)

from conftest import run_fresh


def build_circuit():
    circuit = Circuit()
    circuit.add_register("q", 6)
    circuit.append(h(0))
    circuit.append(cnot(0, 1))
    circuit.append(cnot(0, 1))
    circuit.append(inject_t(2, 3))
    circuit.append(cxx(0, [2, 4]))
    circuit.append(barrier())
    circuit.append(cnot(4, 5))
    return circuit


class TestInteractionGraph:
    def test_all_circuit_qubits_are_vertices(self):
        graph = interaction_graph(build_circuit())
        assert set(graph.nodes()) == {0, 1, 2, 3, 4, 5}

    def test_repeated_interactions_accumulate_weight(self):
        graph = interaction_graph(build_circuit())
        assert graph[0][1]["weight"] == 2

    def test_edge_gate_indices_recorded(self):
        graph = interaction_graph(build_circuit())
        assert graph[0][1]["gates"] == [1, 2]

    def test_cxx_contributes_control_target_pairs(self):
        graph = interaction_graph(build_circuit())
        assert graph.has_edge(0, 2)
        assert graph.has_edge(0, 4)
        assert not graph.has_edge(2, 4)

    def test_barriers_add_no_edges(self):
        graph = interaction_graph([barrier([0, 1, 2])], include_qubits=[0, 1, 2])
        assert graph.number_of_edges() == 0

    def test_single_qubit_gates_add_no_edges(self):
        graph = interaction_graph([h(0)], include_qubits=[0])
        assert graph.number_of_edges() == 0

    def test_gate_list_input_adds_touched_vertices(self):
        graph = interaction_graph([cnot(3, 7)])
        assert set(graph.nodes()) == {3, 7}

    def test_include_qubits_forces_isolated_vertices(self):
        graph = interaction_graph([cnot(0, 1)], include_qubits=[0, 1, 9])
        assert 9 in graph
        assert dict(graph.degree())[9] == 0

    def test_interaction_edges_flat_list(self):
        edges = interaction_edges(build_circuit())
        assert edges.count((0, 1)) == 2
        assert (0, 2) in edges
        assert (4, 5) in edges

    def test_degree_statistics(self):
        stats = degree_statistics(interaction_graph(build_circuit()))
        assert stats["max"] >= stats["mean"] >= stats["min"]
        # Every qubit of the sample circuit participates in some interaction.
        assert stats["min"] >= 1.0
        assert stats["max"] >= 3.0  # qubit 0 talks to 1, 2 and 4

    def test_degree_statistics_empty_graph(self):
        import networkx as nx

        assert degree_statistics(nx.Graph()) == {"min": 0.0, "max": 0.0, "mean": 0.0}

    def test_subgraph_for_qubits_is_copy(self):
        graph = interaction_graph(build_circuit())
        sub = subgraph_for_qubits(graph, [0, 1])
        sub.add_edge(0, 1, weight=99)
        assert graph[0][1]["weight"] == 2


class TestFactoryGraphs:
    def test_single_level_graph_connected_core(
        self, single_level_k4, k4_interaction_graph
    ):
        # Every raw state is consumed, so no qubit is isolated.
        assert all(deg > 0 for _q, deg in k4_interaction_graph.degree())

    def test_two_level_graph_includes_permutation_edges(self, two_level_cap4):
        graph = interaction_graph(two_level_cap4.circuit)
        producer_outputs = {
            e.producer_qubit for e in two_level_cap4.permutation_edges
        }
        # Each forwarded output must interact with a round-2 ancilla.
        round2_ancillas = {
            q for m in two_level_cap4.rounds[1] for q in m.anc_qubits
        }
        for output in producer_outputs:
            assert any(n in round2_ancillas for n in graph.neighbors(output))


# ----------------------------------------------------------------------
# Evaluation without networkx
# ----------------------------------------------------------------------
EVALUATE_EVERY_MAPPER = (
    "import repro, repro.api, repro.cli, repro.service.server\n"
    "from repro.api import EvaluationRequest, Pipeline, available_mappers\n"
    "pipeline = Pipeline()\n"
    "results = {\n"
    "    f'{method}/{levels}': pipeline.evaluate(\n"
    "        EvaluationRequest(method, 4, levels=levels)\n"
    "    ).to_dict()\n"
    "    for levels in (1, 2)\n"
    "    for method in available_mappers()\n"
    "}\n"
)


class TestEvaluationWithoutNetworkx:
    def test_evaluation_leaves_networkx_unimported(self):
        out = run_fresh(
            EVALUATE_EVERY_MAPPER
            + "import sys\n"
            + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))\n"
        )
        assert out.strip() == "[]"

    def test_evaluation_runs_with_networkx_unimportable(self):
        out = run_fresh(
            "import sys\nsys.modules['networkx'] = None\n"
            + EVALUATE_EVERY_MAPPER
            + "import json\nprint(json.dumps(results, sort_keys=True))\n"
        )
        results = json.loads(out)
        # The five paper mappers, at both levels.
        assert len(results) >= 10
        pipeline = Pipeline()
        for key, result in results.items():
            method, levels = key.split("/")
            request = EvaluationRequest(method, 4, levels=int(levels))
            assert pipeline.evaluate(request).to_dict() == result, key
