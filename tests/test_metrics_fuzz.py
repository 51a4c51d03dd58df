"""Differential fuzz harness: the compiled tracker vs the scalar reference.

Each tracker trial draws a random scenario — a random interaction-style
graph (occasionally weighted, occasionally with string vertex labels), a
random layout, and a random sequence of moves, reverts and pure (never
committed) evaluations — and checks that **every** available
:class:`repro.graphs.metrics.MappingCostTracker` engine (``scalar``
reference, ``compiled`` when the C kernel builds) stays byte-identical
on the full tracker state after every step: per-move deltas, crossings,
total/weighted length, spacing sum, combined cost, and the tracked
positions.

Each refine trial draws a random graph, a placement with extra non-graph
occupants and a random :class:`ForceDirectedConfig`, and runs the
force-directed annealer once per engine: the ``compiled`` engine runs
every sweep inside the kernel (``mc_sweep``), the ``scalar`` run (under
``REPRO_NO_KERNEL=1``) the Python oracle loop.  The refined placement,
every ``RefineStats`` field and the annealer RNG's final state must
match the ``scalar`` run exactly.

Each force trial draws a random graph, placement and force configuration
(negative weights, every radius from 1 to 9, every combination of the
three force switches) and compares the kernel's force pass
(``KernelSweep.forces``, i.e. ``mc_forces``) with the numpy
``_ForceField.forces`` and ``_step_toward`` byte for byte.

A small corpus runs in tier 1; the nightly CI job widens it with
``--fuzz-iterations``.

Failures are collected, not raised one at a time: the assertion message
lists every failing seed with a one-line repro command
(``--fuzz-seeds=<seed>`` replays exactly that trial).
"""

from __future__ import annotations

import functools
import random

import networkx as nx
import pytest

from repro.distillation import build_single_level_factory, build_two_level_factory
from repro.graphs import MappingCostTracker, interaction_graph, tracker_engines
from repro.mapping import ForceDirectedConfig, linear_factory_placement
from repro.mapping.force_directed import (
    _ForceField,
    _step_toward,
    assign_dipole_poles,
)
from repro.mapping.placement import Placement
from conftest import fuzz_corpus, kernel_disabled

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
    if rng.random() < 0.2:  # string ids: the kernel sees them as dense ints
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


def test_differential_fuzz(request):
    """Sweep the seeded corpus; report every failing seed with a repro."""
    fuzz_corpus(request, run_trial)


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
        attraction_weight=rng.uniform(-2.0, 2.0),
        repulsion_weight=rng.uniform(-2.0, 2.0),
        dipole_weight=rng.uniform(-2.0, 2.0),
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


def test_refine_differential_fuzz(request, refine_outcome):
    """The kernel sweep and the oracle loop anneal identically."""

    def trial(seed: int) -> None:
        rng = random.Random(SEED_BASE + seed)
        graph, placement, config = _random_refine_case(rng)
        outcomes = {}
        if "compiled" in _engines():
            outcomes["compiled"] = refine_outcome(graph, placement, config)
        with kernel_disabled():
            outcomes["scalar"] = refine_outcome(graph, placement, config)
        expected = outcomes["scalar"]
        for engine, outcome in outcomes.items():
            for key, value in outcome.items():
                assert value == expected[key], (
                    f"engine={engine!r} refine diverged on {key} (seed {seed})"
                )

    fuzz_corpus(request, trial)


def test_harness_detects_divergence(monkeypatch):
    """The harness itself must fail loudly if an engine ever lies."""
    _require_compiled()  # with the scalar engine alone there is no pair
    real_apply = MappingCostTracker.apply

    def corrupted(self, updates):
        delta = real_apply(self, updates)
        if self.engine == "scalar":
            return delta
        return delta + 1.0

    monkeypatch.setattr(MappingCostTracker, "apply", corrupted)
    with pytest.raises(AssertionError, match="diverged"):
        run_trial(0)


# ----------------------------------------------------------------------
# The kernel's force pass vs the numpy force field
# ----------------------------------------------------------------------
def _require_compiled():
    if "compiled" not in tracker_engines():
        pytest.skip("the metrics kernel is unavailable")


def _field_and_sweep(graph, placement, config):
    """The numpy field, a kernel sweep over it and the step clamp, built the
    way ``force_directed_refine`` builds them."""
    field = _ForceField(graph, config, assign_dipole_poles(graph, seed=config.seed))
    max_step = min(config.max_step, max(placement.height, placement.width))
    tracker = MappingCostTracker(
        graph, placement.as_float_positions(), engine="compiled"
    )
    sweep = tracker.kernel_sweep(
        list(graph.nodes()),
        placement.height,
        placement.width,
        field.sweep_forces(max_step),
    )
    return field, sweep, max_step


def force_outcomes(graph, placement, config, order_seed=0):
    """``(numpy, kernel)`` pairs of ``(forces, steps)`` at ``placement``.

    The numpy pair is ``_ForceField.forces`` plus ``_step_toward`` over a
    shuffled proposal order; the kernel pair is the force pass of the
    :class:`KernelSweep` over the same field.
    """
    field, sweep, max_step = _field_and_sweep(graph, placement, config)
    order = list(range(graph.number_of_nodes()))
    random.Random(order_seed).shuffle(order)
    forces = field.forces(placement.positions)
    numpy_pair = (forces, _step_toward(forces[order], max_step))
    return numpy_pair, sweep.forces(placement.positions, order)


def assert_same_forces(graph, placement, config, label="", order_seed=0):
    """The kernel's forces and steps equal numpy's byte for byte."""
    (forces, steps), (kernel_forces, kernel_steps) = force_outcomes(
        graph, placement, config, order_seed
    )
    for name, ours, theirs in (
        ("forces", kernel_forces, forces),
        ("steps", kernel_steps, steps),
    ):
        assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape), (
            f"{label}: {name} diverged in dtype or shape"
        )
        assert ours.tobytes() == theirs.tobytes(), f"{label}: {name} diverged"
    return forces


#: Force configurations of the factory matrix: the defaults, radius 1 (the
#: edge bucket, 2, then differs from the dipole bucket, 1) with negative
#: and non-unit weights, and radius 9.
FORCE_CONFIGS = {
    "default": dict(),
    "radius1-signed": dict(
        neighborhood_radius=1,
        attraction_weight=-0.75,
        repulsion_weight=3.5,
        dipole_weight=-2.25,
    ),
    "radius9": dict(neighborhood_radius=9, max_step=12),
}


@functools.lru_cache(maxsize=None)
def _factory_case(name, shuffled):
    if name.startswith("L1-K"):
        factory = build_single_level_factory(int(name[len("L1-K") :]))
    else:
        factory = build_two_level_factory(
            int(name[len("L2-K") :]), barriers_between_rounds=True
        )
    graph = interaction_graph(factory.circuit)
    placement = linear_factory_placement(factory)
    if shuffled:
        cells = [
            (row, col)
            for row in range(placement.height)
            for col in range(placement.width)
        ]
        random.Random(name).shuffle(cells)
        placement = Placement(
            placement.width,
            placement.height,
            dict(zip(placement.positions, cells)),
        )
    return graph, placement


def _grid_placement(vertices, height, width, cells):
    return Placement(width, height, dict(zip(vertices, cells)))


class TestKernelForces:
    """``mc_forces`` equals ``_ForceField.forces`` + ``_step_toward`` bitwise."""

    @pytest.mark.parametrize("config_name", sorted(FORCE_CONFIGS))
    @pytest.mark.parametrize("shuffled", [False, True], ids=["linear", "shuffled"])
    @pytest.mark.parametrize("name", ["L1-K2", "L1-K4", "L1-K8", "L2-K4", "L2-K16"])
    def test_factory_graphs(self, name, shuffled, config_name):
        _require_compiled()
        graph, placement = _factory_case(name, shuffled)
        config = ForceDirectedConfig(**FORCE_CONFIGS[config_name])
        forces = assert_same_forces(graph, placement, config, name)
        assert (forces != 0).any(), "a vacuous all-zero force field"

    def test_coincident_midpoints(self):
        # Edges 0-1 and 2-3 cross at (1, 1): their midpoint distance is
        # below 1e-9, so both take the 0.5 substitute.
        _require_compiled()
        graph = nx.Graph([(0, 1), (2, 3)])
        cells = [(0, 0), (2, 2), (0, 2), (2, 0)]
        placement = _grid_placement(range(4), 3, 3, cells)
        config = ForceDirectedConfig(use_attraction=False, use_dipole=False)
        forces = assert_same_forces(graph, placement, config)
        # Each edge's push is weight * 0.5 / 0.5 / 2 on both axes.
        assert forces.tolist() == [[0.5, 0.5]] * 4

    @pytest.mark.parametrize("radius", [1, 3, 4])
    def test_pair_at_exactly_the_radius(self, radius):
        # The dipole keeps pairs with dist_sq <= radius**2: two vertices
        # exactly `radius` apart interact, one cell further they do not.
        _require_compiled()
        graph = nx.Graph()
        graph.add_nodes_from(range(3))
        cells = [(0, 0), (0, radius), (0, 2 * radius + 1)]
        placement = _grid_placement(range(3), 1, 2 * radius + 2, cells)
        config = ForceDirectedConfig(
            neighborhood_radius=radius,
            use_attraction=False,
            use_edge_repulsion=False,
        )
        forces = assert_same_forces(graph, placement, config)
        assert forces[0, 1] != 0.0 and forces[1, 1] != 0.0
        assert forces[2].tolist() == [0.0, 0.0]

    def test_edgeless_graph(self):
        _require_compiled()
        graph = nx.Graph()
        graph.add_nodes_from(range(6))
        cells = [(row, col) for row in range(3) for col in range(3)]
        placement = _grid_placement(range(6), 3, 3, cells)
        assert_same_forces(graph, placement, ForceDirectedConfig())

    def test_single_vertex(self):
        _require_compiled()
        graph = nx.Graph()
        graph.add_node(0)
        forces = assert_same_forces(
            graph, _grid_placement([0], 2, 2, [(1, 1)]), ForceDirectedConfig()
        )
        assert forces.tolist() == [[0.0, 0.0]]

    @pytest.mark.parametrize(
        "broken",
        [
            dict(poles=[1, 1, 1]),
            dict(nbr_offsets=[0, 1, 2, 3]),
            dict(nbr_offsets=[0, 1, 2, 3, 5]),
            dict(nbr_offsets=[0, 2, 1, 3, 4]),
            dict(edge_u=[0, 4], edge_v=[1, 3]),
            dict(edge_v=[1]),
            dict(edge_v=[1, -1]),
            dict(nbr_index=[1, 0, 3, 9]),
        ],
    )
    def test_field_must_index_exactly_the_movers(self, broken):
        # The kernel reads the field without bounds checks.
        _require_compiled()
        graph = nx.Graph([(0, 1), (2, 3)])
        cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
        placement = _grid_placement(range(4), 2, 2, cells)
        config = ForceDirectedConfig()
        field = _ForceField(graph, config, assign_dipole_poles(graph))
        tracker = MappingCostTracker(
            graph, placement.as_float_positions(), engine="compiled"
        )
        forces = field.sweep_forces(2)
        tracker.kernel_sweep(range(4), 2, 2, forces)  # the intact field
        with pytest.raises(ValueError, match="index exactly the movers"):
            tracker.kernel_sweep(range(4), 2, 2, forces._replace(**broken))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_force_raises_like_numpy(self):
        # A weight past the validated range overflows the repulsion sums.
        _require_compiled()
        graph, placement = _factory_case("L1-K4", False)
        config = ForceDirectedConfig()
        config.repulsion_weight = 1e308
        field, sweep, max_step = _field_and_sweep(graph, placement, config)
        order = list(range(graph.number_of_nodes()))
        with pytest.raises(ValueError, match="NaN force") as numpy_error:
            _step_toward(field.forces(placement.positions)[order], max_step)
        with pytest.raises(ValueError) as kernel_error:
            sweep.forces(placement.positions, order)
        assert str(kernel_error.value) == str(numpy_error.value)


def _random_force_case(rng: random.Random, seed: int):
    """A random integer-labelled graph, placement and force config."""
    n = rng.randint(1, 40)
    graph = nx.gnm_random_graph(
        n, rng.randint(0, 3 * n), seed=rng.randrange(1 << 30)
    )
    if rng.random() < 0.2:  # the field keeps self-loops the tracker drops
        vertex = rng.randrange(n)
        graph.add_edge(vertex, vertex)
    height = rng.randint(1, 12)
    width = max(rng.randint(1, 12), -(-n // height))
    cells = [(row, col) for row in range(height) for col in range(width)]
    rng.shuffle(cells)
    placement = Placement(width, height, dict(zip(graph.nodes(), cells)))
    switches = seed % 8  # consecutive seeds walk every switch combination
    config = ForceDirectedConfig(
        attraction_weight=rng.uniform(-3.0, 3.0),
        repulsion_weight=rng.uniform(-3.0, 3.0),
        dipole_weight=rng.uniform(-3.0, 3.0),
        neighborhood_radius=rng.randint(1, 9),
        max_step=rng.randint(1, 12),
        use_attraction=bool(switches & 1),
        use_edge_repulsion=bool(switches & 2),
        use_dipole=bool(switches & 4),
        seed=rng.randrange(1 << 20),
    )
    return graph, placement, config


def test_force_differential_fuzz(request):
    """The kernel's force pass equals numpy's on random cases."""
    _require_compiled()

    def trial(seed: int) -> None:
        rng = random.Random(SEED_BASE + seed)
        graph, placement, config = _random_force_case(rng, seed)
        assert_same_forces(graph, placement, config, f"seed {seed}", seed)

    fuzz_corpus(request, trial)
