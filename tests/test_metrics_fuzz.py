"""Differential fuzz harness: tracker engines vs the scalar reference.

Each tracker trial draws a random scenario — a random interaction-style
graph (occasionally weighted, occasionally with non-integer vertex
labels), a random layout, and a random sequence of moves, reverts and
pure (never committed) evaluations — and checks that **every** available
:class:`repro.graphs.metrics.MappingCostTracker` engine (``scalar``
reference, ``vector`` when numpy is present, ``compiled`` when the C
kernel builds) stays byte-identical on the full tracker state after
every step: per-move deltas, crossings, total/weighted length, spacing
sum, combined cost, and the tracked positions.

Each refine trial draws a random graph, a placement with extra non-graph
occupants and a random :class:`ForceDirectedConfig`, and runs the
force-directed annealer once per engine: the ``compiled`` engine runs
every sweep inside the kernel (``mc_sweep``), the others run the Python
oracle loop.  The refined placement, every ``RefineStats`` field and the
annealer RNG's final state must match the ``scalar`` run exactly.

A small corpus runs in tier 1; the nightly CI job widens it with
``--fuzz-iterations``.

Failures are collected, not raised one at a time: the assertion message
lists every failing seed with a one-line repro command
(``--fuzz-seeds=<seed>`` replays exactly that trial).
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.graphs import MappingCostTracker, tracker_engines
from repro.mapping import ForceDirectedConfig
from repro.mapping.placement import Placement

#: Offset added to the trial index so seed 0 is not a magic value.
SEED_BASE = 20260808


def _engines():
    return tracker_engines()


def _random_graph(rng: random.Random) -> nx.Graph:
    n = rng.randint(4, 32)
    graph = nx.gnm_random_graph(
        n, rng.randint(n - 1, 3 * n), seed=rng.randrange(1 << 30)
    )
    if rng.random() < 0.3:  # weighted edges exercise weighted-length sums
        for a, b in graph.edges():
            graph[a][b]["weight"] = rng.choice([0.5, 1.0, 2.0, 3.5])
    if rng.random() < 0.2:  # string ids force the compiled->vector fallback
        graph = nx.relabel_nodes(graph, {v: f"q{v}" for v in graph.nodes()})
    return graph


def _random_layout(rng: random.Random, graph: nx.Graph):
    span = rng.randint(6, 18)
    return {
        vertex: (float(rng.randrange(span)), float(rng.randrange(span)))
        for vertex in graph.nodes()
    }


def _random_updates(rng: random.Random, vertices, span: int):
    chosen = rng.sample(vertices, min(len(vertices), rng.randint(1, 3)))
    return {
        vertex: (float(rng.randrange(span)), float(rng.randrange(span)))
        for vertex in chosen
    }


def _state(tracker: MappingCostTracker):
    return (
        tracker.crossings,
        tracker.total_edge_length,
        tracker.total_weighted_length,
        tracker.spacing_sum,
        tracker.cost(),
        dict(tracker._positions),
    )


def run_trial(seed: int) -> None:
    """One differential trial; raises AssertionError on any divergence."""
    rng = random.Random(SEED_BASE + seed)
    graph = _random_graph(rng)
    layout = _random_layout(rng, graph)
    vertices = sorted(graph.nodes(), key=str)
    span = 20
    trackers = {
        engine: MappingCostTracker(graph, dict(layout), engine=engine)
        for engine in _engines()
        if engine != "compiled" or trackers_support_compiled(graph)
    }
    reference = trackers["scalar"]
    ref_state = _state(reference)
    for engine, tracker in trackers.items():
        assert _state(tracker) == ref_state, (
            f"engine={engine!r} diverged from the scalar reference "
            f"at construction (seed {seed})"
        )

    for step in range(rng.randint(10, 40)):
        action = rng.random()
        if action < 0.55:  # apply, keep
            updates = _random_updates(rng, vertices, span)
            deltas = {
                engine: tracker.apply(updates)
                for engine, tracker in trackers.items()
            }
            expected = deltas["scalar"]
            for engine, delta in deltas.items():
                assert delta == expected, (
                    f"engine={engine!r} diverged on the apply() delta "
                    f"at step {step} (seed {seed})"
                )
        elif action < 0.8:  # apply, then revert
            updates = _random_updates(rng, vertices, span)
            for tracker in trackers.values():
                tracker.apply(updates)
                tracker.revert_last()
        else:  # pure evaluations of independent proposals (no commit)
            for _ in range(rng.randint(1, 6)):
                updates = _random_updates(rng, vertices, span)
                deltas = {
                    engine: tracker.evaluate(updates)
                    for engine, tracker in trackers.items()
                }
                expected = deltas["scalar"]
                for engine, delta in deltas.items():
                    assert delta == expected, (
                        f"engine={engine!r} diverged on the evaluate() delta "
                        f"at step {step} (seed {seed})"
                    )
                for engine, tracker in trackers.items():
                    assert _state(tracker) == ref_state, (
                        f"engine={engine!r} changed the tracker state in a "
                        f"pure evaluate() at step {step} (seed {seed})"
                    )
        ref_state = _state(reference)
        for engine, tracker in trackers.items():
            assert _state(tracker) == ref_state, (
                f"engine={engine!r} diverged on the tracker state "
                f"at step {step} (seed {seed})"
            )


def trackers_support_compiled(graph: nx.Graph) -> bool:
    """Whether the compiled engine accepts this graph's vertex ids."""
    return all(isinstance(vertex, int) for vertex in graph.nodes())


def _fuzz_corpus(request, trial, test_id: str) -> None:
    """Run ``trial`` over the seeded corpus; report every failing seed."""
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
                f"    repro: python -m pytest "
                f"tests/test_metrics_fuzz.py::{test_id} "
                f"--fuzz-seeds={seed}"
            )
        pytest.fail("\n".join(lines))


def test_differential_fuzz(request):
    """Sweep the seeded corpus; report every failing seed with a repro."""
    _fuzz_corpus(request, run_trial, "test_differential_fuzz")


def _random_refine_case(rng: random.Random):
    """A random graph, a placement with spare occupants, and a config."""
    graph = _random_graph(rng)
    labelled = any(isinstance(vertex, str) for vertex in graph.nodes())
    spares = [
        f"spare{i}" if labelled else 1000 + i for i in range(rng.randint(0, 6))
    ]
    occupants = list(graph.nodes()) + spares
    height = rng.randint(2, 9)
    width = max(rng.randint(2, 9), -(-len(occupants) // height))
    cells = [(row, col) for row in range(height) for col in range(width)]
    rng.shuffle(cells)
    placement = Placement(width, height, dict(zip(occupants, cells)))
    config = ForceDirectedConfig(
        sweeps=rng.randint(0, 6),
        temperature=rng.choice([0.0, rng.uniform(0.0, 3.0), 1e-10]),
        cooling=rng.uniform(0.0, 1.0),
        attraction_weight=rng.uniform(0.0, 2.0),
        repulsion_weight=rng.uniform(0.0, 2.0),
        dipole_weight=rng.uniform(0.0, 2.0),
        neighborhood_radius=rng.randint(1, 6),
        max_step=rng.randint(1, 12),
        community_patience=rng.randint(0, 3),
        max_community_moves=rng.randint(0, 4),
        use_attraction=rng.random() < 0.8,
        use_edge_repulsion=rng.random() < 0.8,
        use_dipole=rng.random() < 0.8,
        use_communities=rng.random() < 0.7,
        cost_crossing_weight=rng.uniform(0.0, 8.0),
        seed=rng.randrange(1 << 20),
    )
    return graph, placement, config


def test_refine_differential_fuzz(request, refine_outcome, monkeypatch):
    """The kernel sweep and the oracle loop anneal identically."""

    def trial(seed: int) -> None:
        rng = random.Random(SEED_BASE + seed)
        graph, placement, config = _random_refine_case(rng)
        outcomes = {}
        for engine in _engines():
            monkeypatch.setenv("REPRO_METRICS_ENGINE", engine)
            if engine == "compiled" and not trackers_support_compiled(graph):
                continue
            outcomes[engine] = refine_outcome(graph, placement, config)
        expected = outcomes["scalar"]
        for engine, outcome in outcomes.items():
            for key, value in outcome.items():
                assert value == expected[key], (
                    f"engine={engine!r} refine diverged on {key} (seed {seed})"
                )

    _fuzz_corpus(request, trial, "test_refine_differential_fuzz")


def test_harness_detects_divergence(monkeypatch):
    """The harness itself must fail loudly if an engine ever lies."""
    real_apply = MappingCostTracker.apply

    def corrupted(self, updates):
        delta = real_apply(self, updates)
        if self.engine == "scalar":
            return delta
        return delta + 1.0

    monkeypatch.setattr(MappingCostTracker, "apply", corrupted)
    with pytest.raises(AssertionError, match="diverged"):
        run_trial(0)
