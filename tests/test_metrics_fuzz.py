"""Differential fuzz harness: the compiled tracker vs the scalar reference.

Each tracker trial draws a random scenario — a random interaction-style
graph (occasionally weighted, occasionally with string vertex labels), a
random layout, and a random sequence of moves, moves and their inverses,
and pure (never committed) evaluations — and checks that the
:class:`repro.graphs.metrics.MappingCostTracker` built under the kernel
(when the C kernel builds) stays byte-identical to the ``scalar``
reference built under ``REPRO_NO_KERNEL=1`` on the full tracker state
after every step: per-move deltas, crossings, total length, spacing sum,
combined cost, and the tracked positions.

Each refine trial draws a random graph, a placement with extra non-graph
occupants and a random :class:`ForceDirectedConfig`, and runs the
force-directed annealer once per engine: the ``compiled`` engine runs
every sweep inside the kernel (``mc_sweep``), the ``scalar`` run (under
``REPRO_NO_KERNEL=1``) the Python oracle loop.  The refined placement,
every ``RefineStats`` field and the annealer RNG's final state must
match the ``scalar`` run exactly.

Each band-walk trial draws a layout that stresses the compiled engine's
crossing grid (long diagonals over many bucket rows, axis-parallel edges
on band boundaries, moves past the grid's margin) and checks every
engine's crossing count against the O(m^2) reference after every move.
The tracker's domain is integer cells: layouts and moves drawn off the
lattice must raise, naming the vertex.

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

import contextlib
import functools
import math
import random
import re

import networkx as nx
import pytest

from repro.distillation import build_single_level_factory, build_two_level_factory
from repro.graphs import MappingCostTracker, interaction_graph
from repro.graphs import metrics as metrics_module
from repro.graphs.metrics import count_edge_crossings_reference
from repro.kernels import metrics as metrics_kernel
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


def _engine_contexts():
    """``(engine, context)`` pairs: each context builds that tracker engine.

    ``REPRO_NO_KERNEL=1`` is the only selector, so the ``scalar`` oracle
    is built under :func:`kernel_disabled`; the ``compiled`` engine joins
    when the metrics kernel loads.
    """
    contexts = [("scalar", kernel_disabled)]
    if metrics_kernel.available():
        contexts.append(("compiled", contextlib.nullcontext))
    return contexts


def _trackers(graph, layout, **options):
    """One tracker per available engine over ``layout``, keyed by engine."""
    trackers = {}
    for engine, context in _engine_contexts():
        with context():
            trackers[engine] = MappingCostTracker(graph, dict(layout), **options)
    return trackers


def _random_graph(rng: random.Random) -> nx.Graph:
    n = rng.randint(4, 32)
    graph = nx.gnm_random_graph(
        n, rng.randint(n - 1, 3 * n), seed=rng.randrange(1 << 30)
    )
    if rng.random() < 0.3:  # weights steer community moves, not the tracker
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
    trackers = _trackers(graph, layout)
    positions = dict(layout)  # the layout every tracker holds
    reference = trackers["scalar"]
    ref_state = _state(reference)
    for engine, tracker in trackers.items():
        assert _state(tracker) == ref_state, (
            f"engine={engine!r} diverged from the scalar reference "
            f"at construction (seed {seed})"
        )

    def apply_everywhere(updates, step):
        positions.update(updates)
        deltas = {
            engine: tracker.apply(updates) for engine, tracker in trackers.items()
        }
        expected = deltas["scalar"]
        for engine, delta in deltas.items():
            assert delta == expected, (
                f"engine={engine!r} diverged on the apply() delta "
                f"at step {step} (seed {seed})"
            )

    for step in range(rng.randint(10, 40)):
        action = rng.random()
        if action < 0.55:  # apply, keep
            apply_everywhere(_random_updates(rng, vertices, span), step)
        elif action < 0.8:  # apply, then apply the inverse mapping
            updates = _random_updates(rng, vertices, span)
            inverse = {vertex: positions[vertex] for vertex in updates}
            apply_everywhere(updates, step)
            apply_everywhere(inverse, step)
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
        if metrics_kernel.available():
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
        if isinstance(self._engine, metrics_module._ScalarTrackerEngine):
            return delta
        return delta + 1.0

    monkeypatch.setattr(MappingCostTracker, "apply", corrupted)
    with pytest.raises(AssertionError, match="diverged"):
        run_trial(0)


# ----------------------------------------------------------------------
# The tracker's domain: integer grid cells
# ----------------------------------------------------------------------
def _off_grid_coordinate(rng: random.Random, span: int) -> float:
    """An integer (30%), a half-integer (30%), a float in [-2, span + 2]
    (20%), or an integer nudged by +-1e-13, 1e-9 or 0.1 (20%)."""
    roll = rng.random()
    if roll < 0.3:
        return float(rng.randrange(span))
    if roll < 0.6:
        return rng.randrange(span) + 0.5
    if roll < 0.8:
        return rng.uniform(-2.0, span + 2.0)
    nudge = rng.choice([1e-13, 1e-9, 0.1]) * rng.choice([-1, 1])
    return rng.randrange(span) + nudge


def _off_grid_position(rng: random.Random, span: int):
    return (_off_grid_coordinate(rng, span), _off_grid_coordinate(rng, span))


def _first_off_grid(items):
    """The first vertex of ``(vertex, position)`` items off the lattice."""
    for vertex, (row, col) in items:
        if not (float(row).is_integer() and float(col).is_integer()):
            return vertex
    return None


def _names(vertex):
    return re.escape(f"vertex {vertex!r} ")


def test_off_grid_coordinates_are_rejected(request):
    """Layouts and moves off the integer lattice raise, naming the vertex.

    Off the lattice the two engines count crossings differently (the
    crossing predicates' tolerance depends on argument order), so the
    tracker refuses such input on both engines, and a refused move
    leaves the state untouched.
    """

    def trial(seed: int) -> None:
        rng = random.Random(SEED_BASE + seed)
        graph = _random_graph(rng)
        span = rng.randint(6, 18)
        layout = {vertex: _off_grid_position(rng, span) for vertex in graph.nodes()}
        if rng.random() < 0.5:  # start from cells half the time
            layout = {
                v: (float(round(r)), float(round(c))) for v, (r, c) in layout.items()
            }
        bad = _first_off_grid(layout.items())
        for engine, context in _engine_contexts():
            if bad is not None:
                with context(), pytest.raises(ValueError, match=_names(bad)):
                    MappingCostTracker(graph, dict(layout))
                continue
            with context():
                tracker = MappingCostTracker(graph, dict(layout))
            vertices = sorted(graph.nodes(), key=str)
            for _ in range(20):
                chosen = rng.sample(vertices, min(len(vertices), rng.randint(1, 3)))
                updates = {vertex: _off_grid_position(rng, span) for vertex in chosen}
                bad_move = _first_off_grid(updates.items())
                if bad_move is None:
                    tracker.apply(updates)
                    continue
                state = _state(tracker)
                for method in (tracker.evaluate, tracker.apply):
                    with pytest.raises(ValueError, match=_names(bad_move)):
                        method(updates)
                    assert _state(tracker) == state, f"seed {seed}: {engine}"

    fuzz_corpus(request, trial)


@pytest.mark.parametrize("coordinate", [math.inf, -math.inf, math.nan, 2.5])
def test_non_finite_coordinates_are_rejected(coordinate):
    graph = nx.Graph([(0, 1), (2, 3)])
    layout = {0: (0.0, 0.0), 1: (2.0, 2.0), 2: (0.0, 2.0), 3: (2.0, 0.0)}
    for _, context in _engine_contexts():
        with context():
            with pytest.raises(ValueError, match=_names(3)):
                MappingCostTracker(graph, {**layout, 3: (coordinate, 1.0)})
            tracker = MappingCostTracker(graph, layout)
        with pytest.raises(ValueError, match=_names(1)):
            tracker.evaluate({0: (1.0, 1.0), 1: (1.0, coordinate)})
        assert tracker.apply({9: (coordinate, 0.0)}) == 0.0  # unknown: ignored


# ----------------------------------------------------------------------
# The compiled grid's band walk vs the O(m^2) reference
# ----------------------------------------------------------------------
def _band_position(rng: random.Random, positions, extent: int):
    """A cell that stresses the band walk: anywhere in the extent, on even
    (band-boundary) coordinates, in line with a placed vertex (an
    axis-parallel edge), or past the grid's margin."""
    roll = rng.random()
    if roll < 0.3 or not positions:
        return (float(rng.randrange(extent)), float(rng.randrange(extent)))
    if roll < 0.5:
        return (
            float(2 * rng.randrange(extent // 2)),
            float(2 * rng.randrange(extent // 2)),
        )
    if roll < 0.8:
        row, col = rng.choice(list(positions.values()))
        if rng.random() < 0.5:
            return (row, float(rng.randrange(extent)))
        return (float(rng.randrange(extent)), col)
    far = [rng.randint(-extent - 12, -8), rng.randint(extent + 8, 2 * extent + 12)]
    return (
        float(rng.choice(far + [rng.randrange(extent)])),
        float(rng.choice(far + [rng.randrange(extent)])),
    )


def _assert_band_crossings(graph, layout, moves, bucket, label):
    """Every engine's crossings equal the reference's, after every move."""
    positions = dict(layout)
    trackers = _trackers(graph, layout, bucket_size=bucket)
    for step in range(len(moves) + 1):
        if step:
            positions.update(moves[step - 1])
            for tracker in trackers.values():
                tracker.apply(moves[step - 1])
        expected = count_edge_crossings_reference(graph, positions)
        for engine, tracker in trackers.items():
            assert tracker.crossings == expected, (
                f"{label}: engine={engine!r} counted {tracker.crossings} "
                f"crossings, the reference {expected}, after {step} moves"
            )


def test_band_walk_crossings_fuzz(request):
    """Long diagonals, boundary edges and far moves: crossings stay exact."""

    def trial(seed: int) -> None:
        rng = random.Random(SEED_BASE + seed)
        n = rng.randint(8, 24)
        extent = rng.choice([16, 24, 40])
        graph = nx.gnm_random_graph(
            n, rng.randint(n, 3 * n), seed=rng.randrange(1 << 30)
        )
        layout = {}
        for vertex in graph.nodes():
            layout[vertex] = _band_position(rng, layout, extent)
        # Bucket 2 or 2.5 puts integer cells on band boundaries, and every
        # edge longer than 16 cells spans at least 8 bucket rows or columns.
        bucket = rng.choice([None, 1.0, 2.0, 2.5])
        positions = dict(layout)
        vertices = list(graph.nodes())
        moves = []
        for _ in range(rng.randint(10, 30)):
            if rng.random() < 0.2:
                # A cluster drifts past the grid's margin together, taking
                # its crossings along (the grid is sized to the layout).
                shift = [
                    rng.choice([-1, 0, 1]) * rng.randint(extent + 12, extent + 24)
                    for _ in range(2)
                ]
                cluster = rng.sample(vertices, len(vertices) // 2)
                move = {
                    v: (positions[v][0] + shift[0], positions[v][1] + shift[1])
                    for v in cluster
                }
            else:
                chosen = rng.sample(vertices, rng.randint(1, 2))
                move = {v: _band_position(rng, positions, extent) for v in chosen}
            positions.update(move)
            moves.append(move)
        _assert_band_crossings(graph, layout, moves, bucket, f"seed {seed}")

    fuzz_corpus(request, trial)


def test_band_walk_boundary_shapes():
    """Hand-placed crossings on band corners and boundaries (bucket 2)."""
    graph = nx.Graph()
    edges = {
        # Two long diagonals crossing at (8, 8), a band corner, and a
        # third one sharing no cell-aligned point.
        (0, 1): ((0.0, 0.0), (16.0, 16.0)),
        (2, 3): ((0.0, 16.0), (16.0, 0.0)),
        (4, 5): ((1.0, 0.0), (17.0, 15.0)),
        # Horizontal and vertical edges on band boundaries, touching the
        # diagonals and each other end to side.
        (6, 7): ((4.0, 0.0), (4.0, 14.0)),
        (8, 9): ((0.0, 6.0), (4.0, 6.0)),
        (10, 11): ((10.0, 2.0), (10.0, 2.0 + 8.0)),
        (12, 13): ((2.0, 12.0), (18.0, 12.0)),
        # A steep and a shallow segment through band corners.
        (14, 15): ((0.0, 2.0), (16.0, 4.0)),
        (16, 17): ((2.0, 0.0), (4.0, 16.0)),
    }
    layout = {}
    for (a, b), (p, q) in edges.items():
        graph.add_edge(a, b)
        layout[a], layout[b] = p, q
    moves = [
        {0: (-20.0, -20.0)},  # far past the low margin on both axes
        {1: (40.0, 40.0)},  # and past the high one: the diagonal spans the grid
        {6: (-20.0, 4.0), 7: (40.0, 4.0)},  # a vertical edge beyond both ends
        {12: (2.0, -30.0), 13: (2.0, 50.0)},  # a boundary row beyond both ends
        {14: (8.0, -40.0)},
        {0: (0.0, 0.0), 1: (16.0, 16.0)},
    ]
    # Crossing pairs wholly beyond each side of the grid: their crossings
    # lie in the bands clamping folds into the border rows and columns.
    # One edge per move, so the grid (not the changed-vs-changed block)
    # finds each crossing with the edges already out there.
    for row, col in ((-40.0, 0.0), (60.0, 0.0), (0.0, -40.0), (0.0, 60.0)):
        for edge in ((0, 1), (2, 3), (14, 15), (16, 17)):
            moves.append({v: (layout[v][0] + row, layout[v][1] + col) for v in edge})
    _assert_band_crossings(graph, layout, moves, 2.0, "boundary shapes")


# ----------------------------------------------------------------------
# The kernel's force pass vs the numpy force field
# ----------------------------------------------------------------------
def _require_compiled():
    if not metrics_kernel.available():
        pytest.skip("the metrics kernel is unavailable")


def _field_and_sweep(graph, placement, config):
    """The numpy field, a kernel sweep over it and the step clamp, built the
    way ``force_directed_refine`` builds them."""
    field = _ForceField(graph, config, assign_dipole_poles(graph, seed=config.seed))
    max_step = min(config.max_step, max(placement.height, placement.width))
    tracker = MappingCostTracker(graph, placement.as_float_positions())
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
        tracker = MappingCostTracker(graph, placement.as_float_positions())
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
