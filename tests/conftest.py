"""Shared fixtures for the test-suite.

Factory construction and simulation are deterministic, so expensive objects
(factories, placements) are session-scoped to keep the suite fast.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import random
import subprocess
import sys
import types

import pytest


def pytest_addoption(parser):
    """Options shared by the differential fuzz harnesses
    (test_simulator_fuzz.py, test_metrics_fuzz.py, test_graph_fuzz.py)."""
    parser.addoption(
        "--fuzz-iterations",
        type=int,
        default=10,
        help=(
            "number of randomized differential-fuzz trials to run "
            "(tier-1 default: 10; the nightly CI job runs hundreds)"
        ),
    )
    parser.addoption(
        "--fuzz-seeds",
        default=None,
        help=(
            "comma-separated trial seeds to replay instead of the "
            "sequential corpus (one-line repro of a reported failure)"
        ),
    )

import repro
from repro.circuits import Circuit
from repro.distillation import (
    ReusePolicy,
    build_single_level_factory,
    build_two_level_factory,
)
from repro.graphs import interaction_graph
from repro.kernels import metrics as metrics_kernel
from repro.mapping import linear_factory_placement, random_circuit_placement
from repro.routing import kernel as simulator_kernel


def fuzz_corpus(request, trial) -> None:
    """Run ``trial(seed)`` over the fuzz corpus; report every failing seed.

    The corpus is ``range(--fuzz-iterations)``, or the ``--fuzz-seeds``
    list when given.  Failures are collected, not raised one at a time:
    the report lists each failing seed with a one-line repro command.
    """
    seeds_option = request.config.getoption("--fuzz-seeds")
    if seeds_option:
        seeds = [int(token) for token in str(seeds_option).split(",") if token.strip()]
    else:
        seeds = list(range(request.config.getoption("--fuzz-iterations")))
    failures = []
    for seed in seeds:
        try:
            trial(seed)
        except AssertionError as error:
            failures.append((seed, str(error).splitlines()[0]))
    if failures:
        lines = [f"{len(failures)} of {len(seeds)} fuzz trials diverged:"]
        for seed, message in failures:
            lines.append(
                f"  seed {seed}: {message}\n"
                f"    repro: python -m pytest {request.node.nodeid} "
                f"--fuzz-seeds={seed}"
            )
        pytest.fail("\n".join(lines))


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this checkout; return stdout."""
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def networkx_interaction_graph(circuit_or_gates, include_qubits=None):
    """The oracle of ``interaction_graph``: its body as an ``nx.Graph``.

    The production graph (:class:`repro.graphs.Graph`) must iterate its
    nodes, neighbours and edges exactly like this one.
    """
    import networkx as nx

    if isinstance(circuit_or_gates, Circuit):
        gates = circuit_or_gates.gates
        default_vertices = range(circuit_or_gates.num_qubits)
    else:
        gates = tuple(circuit_or_gates)
        default_vertices = ()

    graph = nx.Graph()
    vertices = include_qubits if include_qubits is not None else default_vertices
    graph.add_nodes_from(vertices)

    for gate_index, gate in enumerate(gates):
        if gate.is_barrier:
            continue
        for qubit in gate.qubits:
            if qubit not in graph:
                graph.add_node(qubit)
        for a, b in gate.interaction_pairs():
            if graph.has_edge(a, b):
                graph[a][b]["weight"] += 1
                graph[a][b]["gates"].append(gate_index)
            else:
                graph.add_edge(a, b, weight=1, gates=[gate_index])
    return graph


def assert_same_graph(graph, oracle, label="") -> None:
    """``graph`` iterates exactly like the networkx ``oracle``.

    Node order, each node's neighbour order, and ``edges(data=True)``
    (order, weights and gate lists) must all be equal.
    """
    assert list(graph.nodes()) == list(oracle.nodes()), f"{label}: node order"
    for vertex in oracle.nodes():
        assert list(graph.neighbors(vertex)) == list(oracle.neighbors(vertex)), (
            f"{label}: neighbour order of {vertex!r}"
        )
    assert list(graph.edges(data=True)) == list(oracle.edges(data=True)), (
        f"{label}: edges"
    )


@contextlib.contextmanager
def kernel_disabled():
    """``REPRO_NO_KERNEL=1`` for the block, restoring the kernels after.

    Both stacks fall back to their Python oracles inside the block: the
    per-point ``simulate`` loop and the metrics tracker's scalar engine.
    """
    previous = os.environ.get("REPRO_NO_KERNEL")
    os.environ["REPRO_NO_KERNEL"] = "1"
    simulator_kernel.reset()
    metrics_kernel.reset()
    try:
        yield
    finally:
        if previous is None:
            del os.environ["REPRO_NO_KERNEL"]
        else:
            os.environ["REPRO_NO_KERNEL"] = previous
        simulator_kernel.reset()
        metrics_kernel.reset()


@pytest.fixture(scope="session")
def single_level_k4():
    """A single-level capacity-4 factory."""
    return build_single_level_factory(4)


@pytest.fixture(scope="session")
def single_level_k8():
    """A single-level capacity-8 factory (the Fig. 5 circuit)."""
    return build_single_level_factory(8)


@pytest.fixture(scope="session")
def two_level_cap4():
    """A two-level capacity-4 factory (k=2), no reuse, with barriers."""
    return build_two_level_factory(4, barriers_between_rounds=True)


@pytest.fixture(scope="session")
def two_level_cap4_reuse():
    """A two-level capacity-4 factory with qubit reuse."""
    return build_two_level_factory(
        4, reuse_policy=ReusePolicy.REUSE, barriers_between_rounds=True
    )


@pytest.fixture(scope="session")
def two_level_cap16():
    """A two-level capacity-16 factory (k=4)."""
    return build_two_level_factory(16, barriers_between_rounds=True)


@pytest.fixture(scope="session")
def k4_interaction_graph(single_level_k4):
    """Interaction graph of the single-level capacity-4 factory."""
    return interaction_graph(single_level_k4.circuit)


@pytest.fixture(scope="session")
def k4_linear_placement(single_level_k4):
    """Linear placement of the single-level capacity-4 factory."""
    return linear_factory_placement(single_level_k4)


@pytest.fixture(scope="session")
def k4_random_placement(single_level_k4):
    """Random placement of the single-level capacity-4 factory."""
    return random_circuit_placement(single_level_k4.circuit, seed=11)


@pytest.fixture
def refine_outcome(monkeypatch):
    """Run ``force_directed_refine`` and capture everything it decides.

    Returns a function ``(graph, placement, config) -> dict`` with the
    refined positions, every ``RefineStats`` field (floats as ``repr``, so
    a last-ulp difference shows) and the annealer RNG's state after the
    run, which pins the number and order of its draws.
    """
    from repro.mapping import force_directed as fd_module

    created = []

    class _RecordingRandom(random.Random):
        def __init__(self, seed=None):
            super().__init__(seed)
            created.append(self)

    monkeypatch.setattr(
        fd_module, "random", types.SimpleNamespace(Random=_RecordingRandom)
    )

    def run(graph, placement, config):
        created.clear()
        fd_module.take_refine_stats()
        refined = fd_module.force_directed_refine(graph, placement, config)
        stats = dataclasses.asdict(fd_module.take_refine_stats()[-1])
        stats["initial_cost"] = repr(stats["initial_cost"])
        stats["best_cost"] = repr(stats["best_cost"])
        stats["sweep_costs"] = [repr(cost) for cost in stats["sweep_costs"]]
        return {
            "positions": dict(refined.positions),
            "stats": stats,
            # The annealer's own generator is the first one it creates.
            "rng": created[0].getstate(),
        }

    return run
