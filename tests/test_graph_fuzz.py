"""Exactness tests for interaction graphs, graph partitioning and communities.

The interaction graph is a repro-owned :class:`repro.graphs.Graph`.  Its
oracle is the networkx body ``interaction_graph`` had before
(``conftest.networkx_interaction_graph``): on every factory below, on each
round's graph and on the module subgraphs hierarchical stitching maps, node
order, each node's neighbour order and ``edges(data=True)`` must be equal,
and so must induced copies against ``G.subgraph(vertices).copy()``.

Community detection (Section VI-B.1) runs Clauset-Newman-Moore greedy
modularity on a plain adjacency dict.  Its oracle is networkx's own
``greedy_modularity_communities`` behind the same wrapper
(:func:`_oracle_communities`): every community list must be equal, list
order included, with and without ``max_communities``.  At zero total edge
weight, where modularity is undefined, the oracle is networkx's
``connected_components`` on the same subgraph.  Each fuzz trial
draws a random graph with int or float weights, self-loops, isolated
vertices, non-contiguous or string ids and a shuffled insertion order; the
factory interaction graphs of levels 1-2, capacities 2-36, with and
without qubit reuse, are checked as fixed cases.  A small corpus runs in
tier 1; ``--fuzz-iterations`` widens it and ``--fuzz-seeds`` replays
single trials.

The graph-partitioning mapper (Section VI-B.2) and its bisection helpers
are pinned to a golden record taken from the networkx-backed
implementation they replace: blake2b digests of
``graph_partition_placement`` on factory circuits and of ``bisect``,
``recursive_bisection`` and ``heavy_edge_matching`` on seeded random
graphs.  The record was printed with this file placed in a checkout of
the last networkx-backed commit (``377e87d``), from its root, by::

    PYTHONPATH=src python tests/test_graph_fuzz.py

and pasted into ``GP_GOLDEN`` and ``PARTITION_GOLDEN`` below.  The same
command prints the record of the current tree.

The bisection runs in the mapping kernel (``mc_bisect``) whenever it
loads, so the golden record checks whichever engine runs; CI repeats this
file under ``REPRO_NO_KERNEL=1``.  The kernel is also fuzzed against its
oracle, :func:`repro.graphs.partition.bisect_left_reference`: whole-graph
and induced-subgraph bisections and whole GP placements on seeded graphs
with int and float weights, self-loops, isolated vertices, sizes above 1,
contiguous, sparse or string ids, vertex counts on both sides of the
coarsening threshold and seeds that are 0, negative or past 2**64.  The
kernel side runs with the oracle made to raise, so a silent fallback
cannot pass.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import random
from fractions import Fraction

import networkx as nx
import pytest

from repro.distillation import FactorySpec, ReusePolicy, build_factory
from repro.graphs import (
    Graph,
    bisect,
    detect_communities,
    heavy_edge_matching,
    interaction_graph,
    recursive_bisection,
)
from repro.graphs import partition
from repro.graphs.adjacency import adjacency, induced_subgraph
from repro.graphs.partition import Bisector, bisect_left, vertex_sizes
from repro.kernels import metrics as metrics_kernel
from repro.mapping import StitchingConfig, graph_partition_placement
from repro.mapping import stitching

#: Offset added to the trial index so seed 0 is not a magic value.
SEED_BASE = 20261017


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _random_graph(rng: random.Random, float_weights: bool, n: int = 0) -> nx.Graph:
    """A random weighted graph exercising every ordering hazard.

    Ids are contiguous, non-contiguous or strings; nodes and edges are
    inserted in shuffled order; some vertices carry a self-loop and some
    stay isolated; a few edges have no ``weight`` attribute at all.  It
    has ``n`` vertices, or a random count up to 48 when ``n`` is 0.
    """
    n = n or rng.randint(1, 48)
    style = rng.choice(("contiguous", "sparse", "string"))
    if style == "contiguous":
        ids = list(range(n))
    elif style == "sparse":
        ids = rng.sample(range(10 * n + 10), n)
    else:
        ids = [f"v{value}" for value in rng.sample(range(10 * n + 10), n)]
    rng.shuffle(ids)
    graph = nx.Graph()
    graph.add_nodes_from(ids[: rng.randint(0, n)])
    density = rng.uniform(0.02, 0.5)
    edges = [
        (a, b)
        for i, a in enumerate(ids)
        for b in ids[i + 1 :]
        if rng.random() < density
    ]
    edges += [(v, v) for v in ids if rng.random() < 0.15]
    rng.shuffle(edges)
    for a, b in edges:
        if rng.random() < 0.05:
            graph.add_edge(a, b)
        elif float_weights:
            graph.add_edge(a, b, weight=rng.choice((0.1, 0.5, 1.5, rng.random() * 4)))
        else:
            graph.add_edge(a, b, weight=rng.randint(1, 6))
    graph.add_nodes_from(ids)
    return graph


@functools.lru_cache(maxsize=None)
def _factory(capacity: int, levels: int, reuse: bool):
    policy = ReusePolicy.REUSE if reuse else ReusePolicy.NO_REUSE
    spec = FactorySpec.from_capacity(capacity, levels)
    return build_factory(spec, reuse_policy=policy)


FACTORY_CASES = [
    (capacity, levels, reuse)
    for levels, capacities in ((1, (2, 4, 8, 12, 24, 36)), (2, (4, 16, 36)))
    for capacity in capacities
    for reuse in (False, True)
]


# ----------------------------------------------------------------------
# Interaction graphs against the networkx oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("capacity,levels,reuse", FACTORY_CASES)
def test_factory_graphs_match_networkx(capacity, levels, reuse):
    # Imported here so the module also runs as a script (see the docstring).
    from conftest import assert_same_graph, networkx_interaction_graph
    from test_planarity_community_partition import round_interaction_graphs

    factory = _factory(capacity, levels, reuse)
    label = f"K={capacity} levels={levels} reuse={reuse}"
    graph = interaction_graph(factory.circuit)
    oracle = networkx_interaction_graph(factory.circuit)
    assert_same_graph(graph, oracle, label)
    assert graph.number_of_edges() == oracle.number_of_edges()
    assert dict(graph.degree()) == dict(oracle.degree())

    rounds = round_interaction_graphs(factory)
    assert len(rounds) == levels
    for round_index, round_graph in enumerate(rounds, start=1):
        round_oracle = networkx_interaction_graph(
            factory.round_gates(round_index),
            include_qubits=factory.round_qubits(round_index),
        )
        assert_same_graph(round_graph, round_oracle, f"{label} round {round_index}")

    # Induced copies keeping under and over half of the nodes, drawn in a
    # shuffled order: networkx iterates the kept set in the first case and
    # the graph's order in the second.
    rng = random.Random(SEED_BASE + capacity + 100 * levels)
    nodes = list(oracle.nodes())
    for keep in (len(nodes) // 3, len(nodes) // 2 + 1):
        chosen = rng.sample(nodes, keep)
        assert_same_graph(
            graph.subgraph(chosen),
            oracle.subgraph(chosen).copy(),
            f"{label} subgraph of {keep}/{len(nodes)} nodes",
        )


def test_small_subgraph_iterates_the_kept_set():
    """Under half the nodes kept: the set's order, not the graph's."""
    from conftest import assert_same_graph

    graph = Graph()
    oracle = nx.Graph()
    for g in (graph, oracle):
        for v in range(20):
            g.add_node(v)
        for v in range(19):
            g.add_edge(v + 1, v, weight=v, gates=[v])
        g.add_edge(17, 3, weight=7, gates=[])
        g.add_edge(9, 17, weight=8, gates=[])
    chosen = [17, 3, 9]
    copied = oracle.subgraph(chosen).copy()
    assert list(copied) != sorted(chosen)  # the case under test
    assert_same_graph(graph.subgraph(chosen), copied, "small subgraph")


@pytest.mark.parametrize("capacity", [4, 16])
def test_stitching_module_graphs_match_networkx(monkeypatch, capacity):
    """The module subgraphs stitching maps with GP and refines with FD."""
    from conftest import assert_same_graph, networkx_interaction_graph

    built, mapped = [], []

    def spy(function, record):
        def call(graph, *args, **kwargs):
            record.append((graph, args, kwargs))
            return function(graph, *args, **kwargs)

        return call

    for name, record in (
        ("interaction_graph", built),
        ("graph_partition_placement", mapped),
        ("force_directed_refine", mapped),
    ):
        monkeypatch.setattr(stitching, name, spy(getattr(stitching, name), record))
    config = StitchingConfig(module_mapper="graph_partition", refine_modules=True)
    spec = FactorySpec.from_capacity(capacity, 2)
    stitching.hierarchical_stitching(spec, config=config)

    # Each module builds one graph for GP and one for the FD refinement.
    assert len(built) == len(mapped) >= 4
    sizes = set()
    for index, ((gates, _, kwargs), (graph, _, _)) in enumerate(zip(built, mapped)):
        qubits = kwargs["include_qubits"]
        oracle = networkx_interaction_graph(gates, include_qubits=qubits)
        label = f"K={capacity} module graph {index}"
        assert_same_graph(graph, oracle.subgraph(qubits).copy(), label)
        sizes.add(graph.number_of_nodes())
    assert len(sizes) > 1  # modules of both rounds


# ----------------------------------------------------------------------
# Community detection against networkx
# ----------------------------------------------------------------------
def _oracle_communities(graph: nx.Graph, max_communities=None):
    """``detect_communities`` built on networkx's greedy modularity."""
    if graph.number_of_nodes() == 0:
        return []
    connected = [node for node, degree in graph.degree() if degree > 0]
    isolated = [node for node, degree in graph.degree() if degree == 0]
    communities = []
    if connected:
        core = graph.subgraph(connected)
        try:
            detected = nx.community.greedy_modularity_communities(core, weight="weight")
        except ZeroDivisionError:
            detected = nx.connected_components(core)
        communities = [sorted(c) for c in detected]
    if isolated:
        communities.append(sorted(isolated))
    if max_communities is not None and len(communities) > max_communities:
        communities.sort(key=len, reverse=True)
        kept = communities[: max_communities - 1]
        kept.append(sorted(q for c in communities[max_communities - 1 :] for q in c))
        communities = kept
    return communities


def _check_communities(graph, label: str, oracle=None) -> None:
    """``detect_communities(graph)`` against networkx on ``oracle``
    (``graph`` itself when it is a networkx graph)."""
    oracle = graph if oracle is None else oracle
    expected = _oracle_communities(oracle)
    assert detect_communities(graph) == expected, f"{label}: communities differ"
    bound = max(1, len(expected) // 2)
    assert detect_communities(graph, max_communities=bound) == _oracle_communities(
        oracle, max_communities=bound
    ), f"{label}: communities differ with max_communities={bound}"


def run_community_trial(seed: int) -> None:
    """One random graph, int weights for even seeds and floats for odd ones."""
    rng = random.Random(SEED_BASE + seed)
    graph = _random_graph(rng, float_weights=bool(seed % 2))
    _check_communities(graph, f"seed {seed}")


def run_zero_weight_trial(seed: int) -> None:
    """One random graph with every edge weight set to zero, as a networkx
    graph for even seeds and a repro graph for odd ones."""
    rng = random.Random(SEED_BASE + seed)
    oracle = _random_graph(rng, float_weights=False)
    nx.set_edge_attributes(oracle, 0, "weight")
    graph = oracle
    if seed % 2:
        graph = Graph()
        for node in oracle.nodes():
            graph.add_node(node)
        for a, b in oracle.edges():
            graph.add_edge(a, b, weight=0)
    _check_communities(graph, f"zero-weight seed {seed}", oracle=oracle)


def test_communities_match_networkx_fuzz(request):
    # Imported here so the module also runs as a script (see the docstring).
    from conftest import fuzz_corpus

    fuzz_corpus(request, run_community_trial)


def test_zero_weight_communities_match_networkx_fuzz(request):
    from conftest import fuzz_corpus

    fuzz_corpus(request, run_zero_weight_trial)


@pytest.mark.parametrize("capacity,levels,reuse", FACTORY_CASES)
def test_factory_communities_match_networkx(capacity, levels, reuse):
    from conftest import networkx_interaction_graph

    circuit = _factory(capacity, levels, reuse).circuit
    _check_communities(
        interaction_graph(circuit),
        f"K={capacity} levels={levels} reuse={reuse}",
        oracle=networkx_interaction_graph(circuit),
    )


def test_zero_total_weight_gives_connected_components():
    graph = nx.Graph()
    graph.add_edge(0, 1, weight=0)
    graph.add_edge(1, 2, weight=0)
    graph.add_edge(5, 6, weight=0)
    graph.add_node(9)
    expected = [[0, 1, 2], [5, 6], [9]]
    assert _oracle_communities(graph) == expected
    assert detect_communities(graph) == expected


def test_zero_total_weight_on_a_repro_graph():
    oracle, graph = nx.Graph(), Graph()
    for g in (oracle, graph):
        for a, b in ((5, 6), (0, 1), (1, 2), (12, 5), (2, 0), (7, 3)):
            g.add_edge(a, b, weight=0)
        g.add_node(9)
    # Three components, in the order of their first node, and the isolated
    # vertex.
    expected = [[5, 6, 12], [0, 1, 2], [3, 7], [9]]
    assert _oracle_communities(oracle) == expected
    assert detect_communities(graph) == expected
    merged = [[5, 6, 12], [0, 1, 2, 3, 7, 9]]
    assert _oracle_communities(oracle, max_communities=2) == merged
    assert detect_communities(graph, max_communities=2) == merged


def test_zero_total_weight_keeps_a_path_whole():
    # Connected, so one community, where label propagation finds five.
    graph = nx.path_graph(11)
    nx.set_edge_attributes(graph, 0, "weight")
    assert _oracle_communities(graph) == [list(range(11))]
    assert detect_communities(graph) == [list(range(11))]


@pytest.mark.parametrize("kind", [nx.Graph, Graph], ids=["networkx", "repro"])
def test_zero_total_weight_on_sparse_ids_follows_the_kept_set(kind):
    """Under half the nodes have edges: components follow the kept set's
    order (``subgraph_order``), not the graph's."""
    oracle, graph = nx.Graph(), kind()
    for g in (oracle, graph):
        for v in range(20):
            g.add_node(v)
        g.add_edge(70, 33, weight=0)
        g.add_edge(40, 65, weight=0)
    expected = [[40, 65], [33, 70], list(range(20))]
    assert _oracle_communities(oracle) == expected
    assert detect_communities(graph) == expected


def test_zero_total_weight_merges_down_to_max_communities():
    graph = nx.Graph()
    for a, b in ((0, 1), (1, 2), (3, 4), (5, 6)):
        graph.add_edge(a, b, weight=0)
    graph.add_node(7)
    assert detect_communities(graph) == [[0, 1, 2], [3, 4], [5, 6], [7]]
    for bound, expected in (
        (4, [[0, 1, 2], [3, 4], [5, 6], [7]]),
        (3, [[0, 1, 2], [3, 4], [5, 6, 7]]),
        (2, [[0, 1, 2], [3, 4, 5, 6, 7]]),
        (1, [list(range(8))]),
    ):
        assert _oracle_communities(graph, max_communities=bound) == expected
        assert detect_communities(graph, max_communities=bound) == expected


def test_directed_graphs_are_rejected():
    with pytest.raises(TypeError):
        detect_communities(nx.DiGraph([(0, 1)]))
    with pytest.raises(TypeError):
        bisect(nx.MultiGraph([(0, 1)]))


# ----------------------------------------------------------------------
# Graph partitioning against the golden record
# ----------------------------------------------------------------------
def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


GP_CASES = [
    (capacity, levels, reuse, seed)
    for levels, capacities in ((1, (2, 4, 8, 12)), (2, (4, 16, 36)))
    for capacity in capacities
    for reuse in (False, True)
    for seed in (0, 1, 7)
]


def _gp_key(capacity, levels, reuse, seed) -> str:
    return f"K{capacity}-L{levels}-{'reuse' if reuse else 'noreuse'}-s{seed}"


def gp_digest(capacity, levels, reuse, seed) -> str:
    placement = graph_partition_placement(
        _factory(capacity, levels, reuse).circuit, seed=seed
    )
    cells = sorted((q, list(cell)) for q, cell in placement.positions.items())
    return _digest([placement.width, placement.height, cells])


PARTITION_GRAPHS = 20


def _partition_graph(index: int) -> nx.Graph:
    """Seeded int-weighted graphs; every third has self-loops, the last string ids."""
    rng = random.Random(SEED_BASE + 1000 + index)
    n = rng.randint(6, 90)
    graph = nx.gnm_random_graph(
        n, rng.randint(n, 4 * n), seed=rng.randrange(1 << 30)
    )
    for a, b in graph.edges():
        graph[a][b]["weight"] = rng.randint(1, 5)
    if index % 3 == 0:
        for v in rng.sample(range(n), max(1, n // 5)):
            graph.add_edge(v, v, weight=rng.randint(1, 3))
    if index == PARTITION_GRAPHS - 1:
        graph = nx.relabel_nodes(graph, {v: f"q{v:03d}" for v in graph})
    return graph


def partition_digest(index: int) -> str:
    graph = _partition_graph(index)
    parts = recursive_bisection(graph, 2 + index % 5, seed=index)
    halves = bisect(graph, seed=index)
    groups = heavy_edge_matching(graph, seed=index)
    return _digest(
        [
            [halves.left, halves.right, repr(halves.cut_weight)],
            parts,
            [list(group) for group in groups],
        ]
    )


GP_GOLDEN = {
    'K2-L1-noreuse-s0': '140f580efab535ae',
    'K2-L1-noreuse-s1': '5272f0a1e1507ac7',
    'K2-L1-noreuse-s7': '4415db890096b056',
    'K2-L1-reuse-s0': '140f580efab535ae',
    'K2-L1-reuse-s1': '5272f0a1e1507ac7',
    'K2-L1-reuse-s7': '4415db890096b056',
    'K4-L1-noreuse-s0': '5cb572aff082e42d',
    'K4-L1-noreuse-s1': 'b8937fd7fa7df28e',
    'K4-L1-noreuse-s7': 'ae68babe3229bc23',
    'K4-L1-reuse-s0': '5cb572aff082e42d',
    'K4-L1-reuse-s1': 'b8937fd7fa7df28e',
    'K4-L1-reuse-s7': 'ae68babe3229bc23',
    'K8-L1-noreuse-s0': '3604b0af89443d0a',
    'K8-L1-noreuse-s1': 'd7c89abc8f48b224',
    'K8-L1-noreuse-s7': '17d7d0743d64d2f2',
    'K8-L1-reuse-s0': '3604b0af89443d0a',
    'K8-L1-reuse-s1': 'd7c89abc8f48b224',
    'K8-L1-reuse-s7': '17d7d0743d64d2f2',
    'K12-L1-noreuse-s0': 'd9de10eefb82ac8b',
    'K12-L1-noreuse-s1': 'afe7b4258f42ccf3',
    'K12-L1-noreuse-s7': '0859c5cb4287f8fa',
    'K12-L1-reuse-s0': 'd9de10eefb82ac8b',
    'K12-L1-reuse-s1': 'afe7b4258f42ccf3',
    'K12-L1-reuse-s7': '0859c5cb4287f8fa',
    'K4-L2-noreuse-s0': 'c58bbb40cfc821b2',
    'K4-L2-noreuse-s1': 'f0079b8983b30e80',
    'K4-L2-noreuse-s7': '28223d05f1f570ca',
    'K4-L2-reuse-s0': '4f415045b1c6ecc6',
    'K4-L2-reuse-s1': 'c9a78ad11efcc944',
    'K4-L2-reuse-s7': 'eb3fa937072b3307',
    'K16-L2-noreuse-s0': 'e63beab557fe702b',
    'K16-L2-noreuse-s1': 'f7c0c79aab9162db',
    'K16-L2-noreuse-s7': 'c14daf350aefdd28',
    'K16-L2-reuse-s0': '4f068ebae92ae0a2',
    'K16-L2-reuse-s1': '5d188e383413872e',
    'K16-L2-reuse-s7': '1abee7a59fe86472',
    'K36-L2-noreuse-s0': 'de5f05147e5cfa27',
    'K36-L2-noreuse-s1': '23dba76b2db08fb5',
    'K36-L2-noreuse-s7': '930ffc06c4a9e17f',
    'K36-L2-reuse-s0': '922ec7398108e6ac',
    'K36-L2-reuse-s1': '5a044930f568b57e',
    'K36-L2-reuse-s7': 'a22a7b576ae6be3d',
}

PARTITION_GOLDEN = {
    0: '6bcfea8ddbc06947',
    1: 'a8db88fb500cbe9e',
    2: 'f34cf4b47d89656a',
    3: '1d0adbd612c9fe0f',
    4: '002e6a18c4c502bf',
    5: 'c32ffe60e6f81272',
    6: '8ba436a2691b6938',
    7: 'a6a50531e0f4c2c3',
    8: '6fc49447dfe22755',
    9: '94b624e804081efc',
    10: 'b2aa37f359f8b726',
    11: '2d459f22fac98a34',
    12: 'f5d841da84e4e145',
    13: '6c367fe84c5be042',
    14: '69ec327357eac444',
    15: 'e6db3868584f8e6d',
    16: '064e1052286cf1c7',
    17: '389e79381bec7c0e',
    18: '0249ba0418a16b56',
    19: '7c06f4c0f5158b48',
}


@pytest.mark.parametrize("capacity,levels,reuse,seed", GP_CASES)
def test_graph_partition_placement_matches_golden(capacity, levels, reuse, seed):
    key = _gp_key(capacity, levels, reuse, seed)
    assert gp_digest(capacity, levels, reuse, seed) == GP_GOLDEN[key]


@pytest.mark.parametrize("index", range(PARTITION_GRAPHS))
def test_partition_helpers_match_golden(index):
    assert partition_digest(index) == PARTITION_GOLDEN[index]


# ----------------------------------------------------------------------
# The bisection kernel against its Python oracle
# ----------------------------------------------------------------------
def _require_kernel():
    if metrics_kernel.load() is None:
        pytest.skip("the metrics kernel is unavailable")


@contextlib.contextmanager
def _oracle_refused():
    """Make the Python bisection raise inside the block, so only the
    kernel can answer there."""

    def refuse(*args, **kwargs):
        raise AssertionError("the bisection fell back to the Python oracle")

    saved = partition.bisect_left_reference
    partition.bisect_left_reference = refuse
    try:
        yield
    finally:
        partition.bisect_left_reference = saved


#: Seeds that reach every branch of the kernel's seeding: 0, negative
#: (through 0 as coarse levels add 1), carries across a 32-bit word, and
#: magnitudes of three words and more.
KERNEL_SEEDS = (0, 1, -1, -3, 2**32 - 1, -(2**32), 2**64, 2**64 + 3, -(2**64) - 1)


def run_bisect_trial(seed: int) -> None:
    """One random graph on each side of the coarsening threshold (32).

    Compares whole-graph and induced-subgraph bisections and the whole GP
    placement between the kernel and the oracle.
    """
    from conftest import kernel_disabled

    rng = random.Random(SEED_BASE + 5000 + seed)
    n = rng.randint(2, 31) if seed % 2 else rng.randint(33, 140)
    graph = _random_graph(rng, float_weights=bool(seed % 3 == 1), n=n)
    for v in rng.sample(list(graph), n // 5):
        graph.nodes[v]["size"] = rng.randint(2, 4)
    seed_value = rng.choice(KERNEL_SEEDS + (rng.randrange(-(10**6), 10**6),))
    adj, sizes = adjacency(graph), vertex_sizes(graph)
    subsets = [rng.sample(list(adj), rng.randint(0, n)) for _ in range(3)]
    label = f"n={n} seed={seed_value}"

    expected = [partition.bisect_left_reference(adj, sizes, seed=seed_value)]
    expected += [
        partition.bisect_left_reference(
            induced_subgraph(adj, vertices), sizes, len(vertices) // 2, seed_value
        )
        for vertices in subsets
    ]
    with kernel_disabled():
        expected_cells = graph_partition_placement(graph, seed=seed_value).positions
    with _oracle_refused():
        bisector = Bisector(adj, sizes)
        got = [bisect_left(adj, sizes, seed=seed_value)]
        got += [
            bisector.bisect_left(vertices, len(vertices) // 2, seed_value)
            for vertices in subsets
        ]
        cells = graph_partition_placement(graph, seed=seed_value).positions
    assert got == expected, f"{label}: a bisection differs"
    assert cells == expected_cells, f"{label}: the GP placement differs"


def test_bisect_kernel_matches_oracle_fuzz(request):
    from conftest import fuzz_corpus

    _require_kernel()
    fuzz_corpus(request, run_bisect_trial)


@pytest.mark.parametrize("capacity,levels", [(4, 1), (4, 2), (16, 2)])
@pytest.mark.parametrize("seed", [0, -5, 2**64 + 1])
def test_bisect_kernel_places_factories_like_the_oracle(capacity, levels, seed):
    from conftest import kernel_disabled

    _require_kernel()
    circuit = _factory(capacity, levels, False).circuit
    with kernel_disabled():
        expected = graph_partition_placement(circuit, seed=seed)
    with _oracle_refused():
        placement = graph_partition_placement(circuit, seed=seed)
    assert placement.positions == expected.positions


@pytest.mark.parametrize(
    "row",
    [
        [0.1, 0.2, 0.3],  # sum() compensates from Python 3.12 on
        [5, 0.1, 4, 5, 0.7, 1e-16],  # ints first: the first float adds plainly
        [3.3, 0.1, 2],  # floats first: a later int adds plainly
    ],
)
def test_bisect_kernel_degree_rounds_like_sum(row):
    """The start vertex of the initial cut is the first of largest
    weighted degree, which ``sum()`` computes: a vertex whose degree is
    ``sum(row)`` against one of degree just below, at, and just above."""
    _require_kernel()
    total = sum(row)
    below, above = math.nextafter(total, -math.inf), math.nextafter(total, math.inf)
    for rival in (below, total, above):
        adj = {"b": {"x": rival}, "x": {"b": rival}, "a": {}}
        for index, weight in enumerate(row):
            adj["a"][f"y{index}"] = weight
            adj[f"y{index}"] = {"a": weight}
        sizes = {v: 1 for v in adj}
        expected = partition.bisect_left_reference(adj, sizes, seed=3)
        with _oracle_refused():
            assert bisect_left(adj, sizes, seed=3) == expected, rival


@pytest.mark.parametrize(
    "case",
    [
        "fraction weights",
        "nan weight",
        "huge int weight",
        "float size",
        "asymmetric",
        "float seed",
        "float target",
    ],
)
def test_bisect_kernel_leaves_what_it_cannot_replay_to_the_oracle(case):
    """Graphs and calls outside the kernel's exact domain reach the oracle
    and get its answer."""
    _require_kernel()
    rng = random.Random(SEED_BASE + 77)
    adj = adjacency(_random_graph(rng, float_weights=False, n=40))
    sizes = {v: 1 for v in adj}
    u, v = next((u, v) for u in adj for v in adj[u] if u != v)
    seed, target = 4, None
    if case == "fraction weights":
        adj = {a: {b: Fraction(w) for b, w in row.items()} for a, row in adj.items()}
    elif case == "nan weight":
        adj[u][v] = adj[v][u] = math.nan
    elif case == "huge int weight":
        adj[u][v] = adj[v][u] = 2**60
    elif case == "float size":
        sizes[u] = 1.0
    elif case == "asymmetric":
        adj[u]["extra"] = 1
        adj["extra"] = {}
        sizes["extra"] = 1
    elif case == "float seed":
        seed = 2.5
    else:
        target = 19.5
    expected = partition.bisect_left_reference(adj, sizes, target, seed)
    calls = []
    real = partition.bisect_left_reference

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    partition.bisect_left_reference = spy
    try:
        assert bisect_left(adj, sizes, target, seed) == expected
    finally:
        partition.bisect_left_reference = real
    assert calls


class TestKernelSeed:
    """The kernel seeds its MT19937 like ``random.Random(seed)``."""

    @pytest.mark.parametrize(
        "seed",
        [0, 1, 42, 2**32 - 1, 2**32, 2**40 + 7, 2**64 + 3, 2**100, -1, -5, -(2**70)],
    )
    def test_state_matches_python(self, seed):
        import numpy as np

        _require_kernel()
        magnitude = abs(seed)
        words = (magnitude.bit_length() + 31) // 32
        mt = np.zeros(624, dtype=np.uint32)
        index = np.zeros(1, dtype=np.int64)
        metrics_kernel.load().seed(
            magnitude.to_bytes(4 * words, "little"),
            words,
            mt.ctypes.data,
            index.ctypes.data,
        )
        internal = random.Random(seed).getstate()[1]
        assert tuple(mt.tolist()) + (int(index[0]),) == internal


if __name__ == "__main__":
    print("GP_GOLDEN = {")
    for case in GP_CASES:
        print(f"    {_gp_key(*case)!r}: {gp_digest(*case)!r},")
    print("}")
    print("PARTITION_GOLDEN = {")
    for index in range(PARTITION_GRAPHS):
        print(f"    {index}: {partition_digest(index)!r},")
    print("}")
