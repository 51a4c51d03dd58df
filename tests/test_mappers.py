"""Unit tests for the mapping algorithms (linear, random, FD, GP)."""

import contextlib
import functools
import random

import networkx as nx
import pytest

from repro.circuits import critical_path_length
from repro.distillation import BravyiHaahSpec
from repro.graphs import (
    count_edge_crossings,
    interaction_graph,
    mapping_cost,
    mapping_metrics,
    total_edge_length,
)
from repro.mapping import (
    ForceDirectedConfig,
    assign_dipole_poles,
    force_directed_placement,
    force_directed_refine,
    graph_partition_placement,
    linear_factory_placement,
    linear_module_cells,
    linear_module_shape,
    random_circuit_placement,
    random_placement,
    random_placements,
    take_refine_stats,
)
from repro.mapping.force_directed import _next_stall_counter
from repro.routing import simulate
from conftest import kernel_disabled


def assert_places_all_qubits(placement, circuit):
    for qubit in range(circuit.num_qubits):
        assert qubit in placement


class TestLinearMapping:
    def test_module_cells_are_disjoint(self):
        for k in (2, 4, 8, 10):
            cells = linear_module_cells(BravyiHaahSpec(k))
            all_cells = cells["raw"] + cells["anc"] + cells["out"]
            assert len(all_cells) == len(set(all_cells))

    def test_module_cells_fit_block_shape(self):
        for k in (2, 8):
            spec = BravyiHaahSpec(k)
            height, width = linear_module_shape(spec)
            for register_cells in linear_module_cells(spec).values():
                for row, col in register_cells:
                    assert 0 <= row < height
                    assert 0 <= col < width

    def test_module_cells_cover_every_qubit(self):
        spec = BravyiHaahSpec(6)
        cells = linear_module_cells(spec)
        assert len(cells["raw"]) == spec.num_raw_states
        assert len(cells["anc"]) == spec.num_ancillas
        assert len(cells["out"]) == spec.num_outputs

    def test_injection_braids_are_short(self):
        # The hand layout places raw states adjacent to the ancilla they are
        # injected into; edge length of injections must be at most 2.
        spec = BravyiHaahSpec(4)
        cells = linear_module_cells(spec)
        for i in range(1, spec.k + 5):
            raw_cell = cells["raw"][2 * i - 2]
            anc_cell = cells["anc"][i]
            distance = abs(raw_cell[0] - anc_cell[0]) + abs(raw_cell[1] - anc_cell[1])
            assert distance <= 2

    def test_factory_placement_places_everything(self, single_level_k4):
        placement = linear_factory_placement(single_level_k4)
        assert_places_all_qubits(placement, single_level_k4.circuit)

    def test_two_level_placement_places_everything(self, two_level_cap4):
        placement = linear_factory_placement(two_level_cap4)
        assert_places_all_qubits(placement, two_level_cap4.circuit)
        placement.validate()

    def test_reuse_factory_placement_valid(self, two_level_cap4_reuse):
        placement = linear_factory_placement(two_level_cap4_reuse)
        assert_places_all_qubits(placement, two_level_cap4_reuse.circuit)

    def test_single_level_linear_close_to_critical_path(self, single_level_k8):
        placement = linear_factory_placement(single_level_k8)
        latency = simulate(single_level_k8.circuit, placement).latency
        bound = critical_path_length(single_level_k8.circuit)
        assert latency <= bound * 1.5


class TestRandomMapping:
    def test_random_placement_injective(self):
        placement = random_placement(list(range(30)), seed=5)
        assert len(set(placement.positions.values())) == 30

    def test_random_placement_deterministic_per_seed(self):
        first = random_placement(list(range(20)), seed=3)
        second = random_placement(list(range(20)), seed=3)
        assert first.positions == second.positions

    def test_different_seeds_differ(self):
        first = random_placement(list(range(20)), seed=1)
        second = random_placement(list(range(20)), seed=2)
        assert first.positions != second.positions

    def test_random_circuit_placement(self, single_level_k4):
        placement = random_circuit_placement(single_level_k4.circuit, seed=0)
        assert_places_all_qubits(placement, single_level_k4.circuit)

    def test_random_placements_family(self):
        family = random_placements(list(range(10)), count=5, base_seed=7)
        assert len(family) == 5
        assert len({tuple(sorted(p.positions.items())) for p in family}) == 5

    def test_grid_too_small_rejected(self):
        with pytest.raises(ValueError):
            random_placement(list(range(10)), width=2, height=2)

    def test_random_worse_than_linear_on_average(self, single_level_k8):
        graph = interaction_graph(single_level_k8.circuit)
        linear = linear_factory_placement(single_level_k8)
        random_lengths = []
        for seed in range(5):
            placement = random_circuit_placement(single_level_k8.circuit, seed=seed)
            random_lengths.append(
                total_edge_length(graph, placement.as_float_positions())
            )
        linear_length = total_edge_length(graph, linear.as_float_positions())
        assert min(random_lengths) > linear_length


class TestGraphPartitionMapping:
    def test_places_every_qubit(self, single_level_k4):
        placement = graph_partition_placement(single_level_k4.circuit)
        assert_places_all_qubits(placement, single_level_k4.circuit)
        placement.validate()

    def test_two_level_placement(self, two_level_cap4):
        placement = graph_partition_placement(two_level_cap4.circuit, seed=1)
        assert_places_all_qubits(placement, two_level_cap4.circuit)

    def test_respects_explicit_dimensions(self, single_level_k4):
        placement = graph_partition_placement(
            single_level_k4.circuit, width=10, height=10
        )
        assert placement.width == 10 and placement.height == 10

    def test_region_too_small_rejected(self, single_level_k4):
        with pytest.raises(ValueError):
            graph_partition_placement(single_level_k4.circuit, width=3, height=3)

    def test_beats_random_on_edge_length(self, single_level_k8):
        graph = interaction_graph(single_level_k8.circuit)
        gp = graph_partition_placement(single_level_k8.circuit, seed=0)
        rand = random_circuit_placement(single_level_k8.circuit, seed=0)
        assert total_edge_length(graph, gp.as_float_positions()) < total_edge_length(
            graph, rand.as_float_positions()
        )

    def test_accepts_prebuilt_graph(self, k4_interaction_graph, single_level_k4):
        placement = graph_partition_placement(
            k4_interaction_graph,
            qubits=list(range(single_level_k4.circuit.num_qubits)),
        )
        assert placement.num_qubits == single_level_k4.circuit.num_qubits

    def test_extra_qubits_leave_the_callers_graph_alone(self):
        """Qubits missing from the graph are placed without mutating it."""
        graph = nx.path_graph(6)
        placement = graph_partition_placement(graph, qubits=range(8))
        assert graph.number_of_nodes() == 6
        grown = nx.path_graph(6)
        grown.add_nodes_from([6, 7])
        assert placement.positions == graph_partition_placement(grown).positions


class TestForceDirected:
    def test_dipole_poles_cover_every_vertex(self, k4_interaction_graph):
        poles = assign_dipole_poles(k4_interaction_graph)
        assert set(poles) == set(k4_interaction_graph.nodes())
        assert set(poles.values()) <= {-1, 1}

    def test_refinement_improves_random_start(self, single_level_k8):
        graph = interaction_graph(single_level_k8.circuit)
        initial = random_circuit_placement(single_level_k8.circuit, seed=3, slack=1.5)
        refined = force_directed_refine(
            graph, initial, ForceDirectedConfig(sweeps=25, seed=1)
        )
        before = mapping_metrics(graph, initial.as_float_positions())
        after = mapping_metrics(graph, refined.as_float_positions())
        assert after["edge_crossings"] < before["edge_crossings"]
        assert after["average_edge_length"] < before["average_edge_length"]

    def test_refinement_never_loses_qubits(self, single_level_k4, k4_random_placement):
        graph = interaction_graph(single_level_k4.circuit)
        refined = force_directed_refine(
            graph, k4_random_placement, ForceDirectedConfig(sweeps=10, seed=0)
        )
        assert set(refined.positions) == set(k4_random_placement.positions)
        refined.validate()

    def test_dipole_force_ablation(self, single_level_k8):
        """With or without the dipole rotation force FD beats the random
        start, and the dipole never costs much over attraction alone."""
        graph = interaction_graph(single_level_k8.circuit)
        initial = random_circuit_placement(single_level_k8.circuit, seed=5, slack=1.5)
        crossings = {
            use_dipole: count_edge_crossings(
                graph,
                force_directed_refine(
                    graph,
                    initial,
                    ForceDirectedConfig(sweeps=25, seed=1, use_dipole=use_dipole),
                ).as_float_positions(),
            )
            for use_dipole in (True, False)
        }
        initial_crossings = count_edge_crossings(graph, initial.as_float_positions())
        assert crossings[True] < initial_crossings
        assert crossings[False] < initial_crossings
        assert crossings[True] <= crossings[False] * 1.25

    def test_input_placement_not_mutated(self, single_level_k4, k4_random_placement):
        graph = interaction_graph(single_level_k4.circuit)
        snapshot = dict(k4_random_placement.positions)
        force_directed_refine(
            graph, k4_random_placement, ForceDirectedConfig(sweeps=5, seed=0)
        )
        assert k4_random_placement.positions == snapshot

    def test_force_directed_placement_from_scratch(self, single_level_k4):
        placement = force_directed_placement(
            single_level_k4.circuit, config=ForceDirectedConfig(sweeps=5, seed=0)
        )
        assert placement.num_qubits == single_level_k4.circuit.num_qubits

    def test_ablation_switches_accepted(self, single_level_k4, k4_random_placement):
        graph = interaction_graph(single_level_k4.circuit)
        config = ForceDirectedConfig(
            sweeps=5,
            use_dipole=False,
            use_edge_repulsion=False,
            use_communities=False,
            seed=0,
        )
        refined = force_directed_refine(graph, k4_random_placement, config)
        refined.validate()

    def test_deterministic_given_seed(self, single_level_k4, k4_random_placement):
        graph = interaction_graph(single_level_k4.circuit)
        config = ForceDirectedConfig(sweeps=8, seed=42)
        first = force_directed_refine(graph, k4_random_placement, config)
        second = force_directed_refine(graph, k4_random_placement, config)
        assert first.positions == second.positions


class TestExactCostRefinement:
    """The annealer optimizes the exact Fig. 6 cost at every graph size."""

    def test_returned_placement_is_exact_cost_argmin(self, single_level_k8):
        graph = interaction_graph(single_level_k8.circuit)
        initial = random_circuit_placement(single_level_k8.circuit, seed=2, slack=1.5)
        config = ForceDirectedConfig(sweeps=10, seed=0)
        take_refine_stats()
        refined = force_directed_refine(graph, initial, config)
        stats = take_refine_stats()[-1]
        refined_cost = mapping_cost(
            graph,
            refined.as_float_positions(),
            crossing_weight=config.cost_crossing_weight,
        )
        # The tracker's incremental cost equals a from-scratch recompute...
        assert refined_cost == pytest.approx(stats.best_cost, rel=1e-9)
        # ...and the returned placement is the argmin over the initial
        # placement and every sweep-end placement.
        assert refined_cost == pytest.approx(
            min([stats.initial_cost] + stats.sweep_costs), rel=1e-9
        )

    def test_factory_scale_graph_uses_exact_cost(self, two_level_cap16):
        # 1032 edges — far above the deleted 600-edge fallback threshold.
        # The returned placement must still be the exact-cost argmin over
        # sweeps, which only holds if the exact combined metric cost (not
        # the old weighted-length surrogate) drives the sweep bookkeeping.
        graph = interaction_graph(two_level_cap16.circuit)
        assert graph.number_of_edges() > 600
        initial = linear_factory_placement(two_level_cap16)
        config = ForceDirectedConfig(sweeps=3, seed=1, use_communities=False)
        take_refine_stats()
        refined = force_directed_refine(graph, initial, config)
        stats = take_refine_stats()[-1]
        refined_cost = mapping_cost(
            graph,
            refined.as_float_positions(),
            crossing_weight=config.cost_crossing_weight,
        )
        assert refined_cost == pytest.approx(stats.best_cost, rel=1e-9)
        assert refined_cost == pytest.approx(
            min([stats.initial_cost] + stats.sweep_costs), rel=1e-9
        )
        assert refined_cost <= stats.initial_cost

    def test_refine_is_byte_identical_across_tracker_engines(self, single_level_k8):
        """Every tracker engine drives the annealer down the same trajectory.

        The RNG stream consumes one draw per Boltzmann test, so even a
        last-ulp delta difference between engines would fork the move
        sequence; identical positions and costs pin the bit-parity
        contract end to end, not just per-call.  The ``scalar`` run is
        the one under ``REPRO_NO_KERNEL=1``.
        """
        from repro.kernels import metrics as metrics_kernel

        graph = interaction_graph(single_level_k8.circuit)
        initial = random_circuit_placement(single_level_k8.circuit, seed=7, slack=1.5)
        config = ForceDirectedConfig(sweeps=6, seed=4)

        def refine():
            take_refine_stats()
            refined = force_directed_refine(graph, initial, config)
            stats = take_refine_stats()[-1]
            return (
                refined.positions,
                stats.best_cost,
                stats.sweep_costs,
                stats.proposed_moves,
                stats.accepted_moves,
            )

        outcomes = {}
        if metrics_kernel.available():
            outcomes["compiled"] = refine()
        with kernel_disabled():
            outcomes["scalar"] = refine()
        expected = outcomes["scalar"]
        for engine, outcome in outcomes.items():
            assert outcome == expected, f"engine={engine!r} forked the trajectory"

    def test_refine_stats_counters_are_consistent(
        self, single_level_k4, k4_random_placement
    ):
        graph = interaction_graph(single_level_k4.circuit)
        config = ForceDirectedConfig(sweeps=6, seed=3)
        take_refine_stats()
        force_directed_refine(graph, k4_random_placement, config)
        stats = take_refine_stats()[-1]
        assert stats.sweeps == 6
        assert len(stats.sweep_costs) == 6
        assert (
            0 <= stats.improving_moves <= stats.accepted_moves <= stats.proposed_moves
        )
        assert stats.best_cost <= stats.initial_cost

    def test_pending_refine_stats_are_bounded(
        self, single_level_k4, k4_random_placement
    ):
        # A long-lived process that never drains the channel must not leak.
        from repro.mapping import force_directed as fd_module

        graph = interaction_graph(single_level_k4.circuit)
        config = ForceDirectedConfig(sweeps=1, seed=0, use_communities=False)
        take_refine_stats()
        for _ in range(fd_module._MAX_PENDING_REFINE_STATS + 5):
            force_directed_refine(graph, k4_random_placement, config)
        assert (
            len(fd_module._PENDING_REFINE_STATS)
            == fd_module._MAX_PENDING_REFINE_STATS
        )
        assert len(take_refine_stats()) == fd_module._MAX_PENDING_REFINE_STATS


class TestStallCounter:
    """Sweeps with improving local moves don't count toward community patience."""

    def test_new_best_resets(self):
        assert _next_stall_counter(4, new_best=True, improved_any=True) == 0
        assert _next_stall_counter(4, new_best=True, improved_any=False) == 0

    def test_improving_sweep_holds(self):
        assert _next_stall_counter(4, new_best=False, improved_any=True) == 4

    def test_fruitless_sweep_advances(self):
        assert _next_stall_counter(4, new_best=False, improved_any=False) == 5

    def test_stalled_sweeps_gate_community_moves(
        self, single_level_k4, k4_random_placement
    ):
        # With infinite patience no community move may ever fire, however
        # many sweeps stall.
        graph = interaction_graph(single_level_k4.circuit)
        config = ForceDirectedConfig(sweeps=12, seed=0, community_patience=10**6)
        take_refine_stats()
        force_directed_refine(graph, k4_random_placement, config)
        stats = take_refine_stats()[-1]
        assert stats.community_moves == 0


# ----------------------------------------------------------------------
# Kernel sweep vs the Python oracle
# ----------------------------------------------------------------------
#: The parity matrix's annealer configurations.
PARITY_CONFIGS = {
    "seed0": dict(seed=0),
    "seed1": dict(seed=1),
    "seed7": dict(seed=7),
    "frozen": dict(seed=2, temperature=0.0),
    "no-communities": dict(seed=3, use_communities=False, sweeps=8),
    "no-dipole": dict(
        seed=4, use_dipole=False, max_step=1, cooling=0.5, temperature=5.0
    ),
    "no-attraction": dict(
        seed=5, use_attraction=False, community_patience=1, max_community_moves=10
    ),
    # Radius 1: the edge-repulsion bucket (2) differs from the dipole's (1).
    "radius1": dict(seed=8, neighborhood_radius=1),
    "radius9": dict(seed=9, neighborhood_radius=9),
    "signed-weights": dict(
        seed=10, attraction_weight=-0.5, repulsion_weight=2.5, dipole_weight=-1.5
    ),
    # Every step is 0: only community moves change the placement.
    "forces-off": dict(
        seed=11, use_attraction=False, use_edge_repulsion=False, use_dipole=False
    ),
    # mc_sweep rejects a move early when a bound on its spacing term
    # settles the Boltzmann test.  Without the crossing term the delta is
    # length and spacing only, so the bound is tight; a temperature just
    # under the 1e-9 floor rejects without a draw, and a hot one draws
    # for every worsening move ("frozen" covers 0.0).
    "no-crossing-weight": dict(seed=12, cost_crossing_weight=0.0),
    "below-floor": dict(seed=13, temperature=1e-10),
    "hot": dict(seed=14, temperature=3.0, cooling=0.95),
    # mc_sweep also stops a proposal's crossing queries once the partial
    # count settles the test, which is sound only while the bound grows
    # with the count: with a negative weight it falls, and the queries
    # must run in full.
    "negative-crossing-weight": dict(seed=15, cost_crossing_weight=-4.0),
}


def _random_graph_case(index):
    """A random graph on a placement with spare non-graph occupants."""
    import networkx as nx

    from repro.mapping.placement import Placement

    rng = random.Random(100 + index)
    n = rng.randint(6, 40)
    graph = nx.gnm_random_graph(
        n, rng.randint(n, 3 * n), seed=rng.randrange(1 << 30)
    )
    spares = [1000 + i for i in range(rng.randint(1, 8))]
    side = int((n + len(spares)) ** 0.5) + rng.randint(1, 3)
    cells = [(row, col) for row in range(side) for col in range(side)]
    rng.shuffle(cells)
    occupants = list(graph.nodes()) + spares
    return graph, Placement(side, side, dict(zip(occupants, cells)))


def _star_case():
    """Four edges around a corner hub, packed on a 3x3 grid with spares.

    The spacing sum starts near 5, so moves that shift the midpoints give
    mc_sweep a spacing bound larger than the sum itself, and the
    interval's low end clamps at -pairs / 2.
    """
    import networkx as nx

    from repro.mapping.placement import Placement

    graph = nx.star_graph(4)  # hub 0, leaves 1..4
    cells = {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1), 4: (2, 2), 1000: (0, 2)}
    return graph, Placement(3, 3, cells)


@functools.lru_cache(maxsize=None)
def _parity_case(name):
    from repro.distillation import (
        build_single_level_factory,
        build_two_level_factory,
    )

    if name == "star":
        return _star_case()
    if name.startswith("random"):
        return _random_graph_case(int(name[len("random") :]))
    if name.startswith("L1-K"):
        factory = build_single_level_factory(int(name[len("L1-K") :]))
    else:
        factory = build_two_level_factory(
            int(name[len("L2-K") :]), barriers_between_rounds=True
        )
    return interaction_graph(factory.circuit), linear_factory_placement(factory)


def _require_kernel():
    from repro.kernels import metrics as metrics_kernel

    if not metrics_kernel.available():
        pytest.skip("the metrics kernel is unavailable")


def _count_numpy_force_calls(monkeypatch):
    """Record every ``_ForceField.forces`` and ``_step_toward`` call."""
    from repro.mapping import force_directed as fd_module

    calls = []
    real_forces = fd_module._ForceField.forces
    real_step = fd_module._step_toward

    def counting_forces(self, positions):
        calls.append("forces")
        return real_forces(self, positions)

    def counting_step(forces, max_step):
        calls.append("steps")
        return real_step(forces, max_step)

    monkeypatch.setattr(fd_module._ForceField, "forces", counting_forces)
    monkeypatch.setattr(fd_module, "_step_toward", counting_step)
    return calls


def _record_exact_proposals(monkeypatch):
    """Record ``(exact_proposals, proposed, accepted, settled_proposals)`` of
    every kernel sweep."""
    from repro.graphs.metrics import KernelSweep

    counts = []
    real_run = KernelSweep.run

    def counting_run(self, temperature):
        proposed, accepted, improving = real_run(self, temperature)
        counts.append(
            (self.exact_proposals, proposed, accepted, self.settled_proposals)
        )
        return proposed, accepted, improving

    monkeypatch.setattr(KernelSweep, "run", counting_run)
    return counts


def _assert_kernel_matches_oracle(
    refine_outcome, monkeypatch, name, config, oracle_engine
):
    """Run the kernel sweep, then the oracle loop, and compare everything.

    Returns the kernel run's outcome.
    """
    from repro.graphs.metrics import KernelSweep, MappingCostTracker

    _require_kernel()
    graph, placement = _parity_case(name)
    runs = []
    real_run = KernelSweep.run

    def counting_run(self, temperature):
        runs.append(1)
        return real_run(self, temperature)

    monkeypatch.setattr(KernelSweep, "run", counting_run)
    numpy_calls = _count_numpy_force_calls(monkeypatch)
    kernel = refine_outcome(graph, placement, config)
    assert len(runs) == config.sweeps  # one kernel call per sweep
    assert numpy_calls == [], "the compiled path ran the numpy force field"
    if oracle_engine == "scalar":
        with kernel_disabled():
            oracle = refine_outcome(graph, placement, config)
    else:
        # The oracle loop over the compiled engine's per-move evaluate.
        monkeypatch.setattr(
            MappingCostTracker,
            "kernel_sweep",
            lambda self, movers, height, width, forces: None,
        )
        oracle = refine_outcome(graph, placement, config)
    assert len(runs) == config.sweeps  # the oracle never entered the kernel
    assert numpy_calls == ["forces", "steps"] * config.sweeps
    for key in ("positions", "stats", "rng"):
        assert kernel[key] == oracle[key], f"{name}: kernel sweep forked {key}"
    return kernel


class TestKernelSweepParity:
    """``mc_sweep`` equals the sequential Python loop bit for bit.

    Small graphs compare against the loop on the ``scalar`` engine (the
    tracker's own oracle).  On the two-level factories the scalar engine
    costs minutes per refine, so the loop runs on the compiled engine's
    per-move ``evaluate`` instead; its parity with ``scalar`` is pinned by
    the tracker fuzz harness and the cross-engine refine test above.
    """

    @pytest.mark.parametrize("config_name", sorted(PARITY_CONFIGS))
    @pytest.mark.parametrize(
        "name",
        ["L1-K2", "L1-K4", "L1-K8", "star"] + [f"random{i}" for i in range(6)],
    )
    def test_small_graphs_match_scalar_oracle(
        self, refine_outcome, monkeypatch, name, config_name
    ):
        config = ForceDirectedConfig(**PARITY_CONFIGS[config_name])
        _assert_kernel_matches_oracle(
            refine_outcome, monkeypatch, name, config, "scalar"
        )

    @pytest.mark.parametrize("config_name", sorted(PARITY_CONFIGS))
    def test_two_level_k4_matches_oracle(
        self, refine_outcome, monkeypatch, config_name
    ):
        config = ForceDirectedConfig(**PARITY_CONFIGS[config_name])
        _assert_kernel_matches_oracle(
            refine_outcome, monkeypatch, "L2-K4", config, "compiled"
        )

    @pytest.mark.parametrize("config_name", ["seed0", "frozen", "no-attraction"])
    def test_two_level_k16_matches_oracle(
        self, refine_outcome, monkeypatch, config_name
    ):
        # 1032 edges; six sweeps keep the oracle run short.
        settings = dict(PARITY_CONFIGS[config_name], sweeps=6)
        _assert_kernel_matches_oracle(
            refine_outcome,
            monkeypatch,
            "L2-K16",
            ForceDirectedConfig(**settings),
            "compiled",
        )

    def test_forces_off_proposes_nothing(self, refine_outcome, monkeypatch):
        config = ForceDirectedConfig(**PARITY_CONFIGS["forces-off"])
        kernel = _assert_kernel_matches_oracle(
            refine_outcome, monkeypatch, "L1-K8", config, "scalar"
        )
        assert kernel["stats"]["proposed_moves"] == 0
        assert kernel["stats"]["community_moves"] > 0

    def test_most_proposals_skip_their_rows(self, monkeypatch):
        """On L2-K4 under a quarter of proposals compute distance rows."""
        _require_kernel()
        graph, placement = _parity_case("L2-K4")
        counts = _record_exact_proposals(monkeypatch)
        force_directed_refine(graph, placement, ForceDirectedConfig(seed=0))
        exact, proposed, accepted, _ = (sum(column) for column in zip(*counts))
        # Every accepted move needs its exact delta, so rows ran for those.
        assert accepted <= exact < 0.25 * proposed, (exact, proposed)

    def test_most_proposals_stop_their_crossing_queries(self, monkeypatch):
        """On L2-K4 most proposals are rejected before their crossing
        queries finish: the partial count settles the Boltzmann test."""
        _require_kernel()
        graph, placement = _parity_case("L2-K4")
        counts = _record_exact_proposals(monkeypatch)
        force_directed_refine(graph, placement, ForceDirectedConfig(seed=0))
        exact, proposed, _, settled = (sum(column) for column in zip(*counts))
        # Measured: 6,159 of 6,856 proposals (89.8%).  A settled proposal
        # never reaches its distance rows.
        assert settled >= 0.89 * proposed, (settled, proposed)
        assert settled + exact <= proposed, (settled, exact, proposed)

    def test_star_clamps_the_spacing_interval(self, refine_outcome, monkeypatch):
        """The star case reaches the bound's -pairs / 2 clamp and its early
        rejection, and still anneals exactly like the scalar oracle."""
        from repro.graphs.metrics import MappingCostTracker

        _require_kernel()
        clamped = []
        real_evaluate = MappingCostTracker.evaluate

        def recording_evaluate(self, updates):
            # mc_sweep's spacing interval for this move, from the state.
            moves, changed = self._prepare(updates)
            _, new_mids = self._geometry_for(moves, changed)
            shift = sum(
                abs(new[0] - old[0]) + abs(new[1] - old[1])
                for new, old in zip(new_mids, (self._mids[i] for i in changed))
            )
            m = len(self._edges)
            reach = m * shift * (1 + 1e-6) + 1e-6 * abs(self.spacing_sum) + 1.0
            clamped.append(self.spacing_sum - reach < -0.5 * (m * (m - 1) // 2))
            return real_evaluate(self, updates)

        counts = _record_exact_proposals(monkeypatch)
        monkeypatch.setattr(MappingCostTracker, "evaluate", recording_evaluate)
        config = ForceDirectedConfig(seed=3, use_communities=False)
        _assert_kernel_matches_oracle(
            refine_outcome, monkeypatch, "star", config, "scalar"
        )
        assert any(clamped), "no proposal reached the -pairs / 2 clamp"
        exact, proposed, _, _ = (sum(column) for column in zip(*counts))
        assert exact < proposed, "no proposal skipped its rows"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_force_raises_the_same_error_on_both_paths(self):
        # Validation caps the weights; a config mutated past it overflows
        # the first sweep's repulsion sums to NaN.
        _require_kernel()
        graph, placement = _parity_case("L1-K4")
        config = ForceDirectedConfig(seed=0)
        config.repulsion_weight = 1e308
        messages = []
        for context in (contextlib.nullcontext(), kernel_disabled()):
            with context, pytest.raises(ValueError, match="NaN force") as excinfo:
                force_directed_refine(graph, placement, config)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("temperature", [1e-9, 2e-9])
    def test_draws_only_above_the_temperature_floor(
        self, refine_outcome, monkeypatch, temperature
    ):
        # At T = 1e-9 a worsening move is rejected without a draw; just
        # above it every worsening move draws once.  The RNG state after
        # the run pins the draw count.
        config = ForceDirectedConfig(seed=6, temperature=temperature, cooling=1.0)
        _assert_kernel_matches_oracle(
            refine_outcome, monkeypatch, "random0", config, "scalar"
        )

    def test_grid_overflow_resume_is_identical(self, refine_outcome, monkeypatch):
        """A commit that overflows a grid cell resumes the sweep exactly."""
        import numpy as np

        from repro.graphs import metrics as metrics_module

        _require_kernel()
        graph, placement = _parity_case("L1-K8")
        config = ForceDirectedConfig(sweeps=10, seed=0, use_communities=False)
        with kernel_disabled():
            oracle = refine_outcome(graph, placement, config)

        engine_cls = metrics_module._CompiledTrackerEngine
        rebuilds = []
        real_rebuild = engine_cls._rebuild_grid

        def counting_rebuild(self):
            rebuilds.append(1)
            real_rebuild(self)

        def grow_by_one(self):
            # One slot at a time (instead of doubling) keeps every cell
            # full, so the first crowding commit overflows.
            self._ip[6] += 1
            self._cell_items = np.zeros(
                self._n_cells * int(self._ip[6]), dtype=np.int64
            )
            self._ci_p = self._cell_items.ctypes.data

        monkeypatch.setattr(engine_cls, "_rebuild_grid", counting_rebuild)
        monkeypatch.setattr(engine_cls, "_grow_cell_items", grow_by_one)
        monkeypatch.setattr(metrics_module, "_CELL_CAPACITY", 1)
        kernel = refine_outcome(graph, placement, config)
        # Without community moves every commit happens inside mc_sweep.
        assert rebuilds, "no commit overflowed a grid cell"
        assert kernel == oracle


def test_kernel_sweep_leaves_the_tracker_as_the_oracle_does():
    """After a kernel sweep every tracker field equals the oracle's."""
    from repro.graphs.metrics import MappingCostTracker
    from repro.mapping.force_directed import (
        RefineStats,
        _ForceField,
        _oracle_sweep,
        _step_toward,
    )

    _require_kernel()
    graph, placement = _parity_case("random3")
    vertices = list(graph.nodes())
    # Real forces from a field with non-unit, signed weights.
    config = ForceDirectedConfig(
        attraction_weight=1.5,
        repulsion_weight=-0.75,
        dipole_weight=2.5,
        neighborhood_radius=3,
    )
    field = _ForceField(graph, config, assign_dipole_poles(graph, seed=11))
    states = []
    for use_kernel in (True, False):
        moved = placement.copy()
        tracker = MappingCostTracker(graph, moved.as_float_positions())
        sweep_rng = random.Random(5)
        if use_kernel:
            kernel = tracker.kernel_sweep(
                vertices, moved.height, moved.width, field.sweep_forces(4)
            )
            kernel.load(moved.positions, sweep_rng)
            _, accepted, _ = kernel.run(0.7)
            assert accepted, "the sweep accepted nothing"
            moved.positions.update(kernel.sync(sweep_rng))
            moved.validate()
        else:
            order = list(range(len(vertices)))
            sweep_rng.shuffle(order)
            steps = _step_toward(field.forces(moved.positions)[order], 4)
            _oracle_sweep(
                moved, tracker, vertices, order, steps, 0.7, sweep_rng,
                RefineStats(),
            )
        # A later Python-side move must see the same committed geometry.
        delta = tracker.apply({vertices[0]: (0.0, 0.0), vertices[1]: (1.0, 1.0)})
        states.append(
            (
                moved.positions,
                tracker.crossings,
                tracker.total_edge_length,
                tracker.spacing_sum,
                tracker.cost(),
                dict(tracker._positions),
                list(tracker._ends),
                list(tracker._mids),
                delta,
                sweep_rng.getstate(),
            )
        )
    assert states[0] == states[1]


class TestUnplacedVertex:
    """Every graph vertex needs a cell, or refinement names the one missing."""

    @pytest.mark.parametrize("sweeps", [0, 2])
    @pytest.mark.parametrize("engine", ["compiled", "scalar"])
    def test_unplaced_graph_vertex_is_named(self, engine, sweeps):
        import networkx as nx

        from repro.mapping.placement import Placement

        if engine == "compiled":
            _require_kernel()
        graph = nx.path_graph(4)
        graph.add_node(9)  # isolated and unplaced
        placement = Placement(2, 2, {v: (v // 2, v % 2) for v in range(4)})
        context = kernel_disabled() if engine == "scalar" else contextlib.nullcontext()
        with context, pytest.raises(KeyError, match=r"vertex 9\b"):
            force_directed_refine(
                graph, placement, ForceDirectedConfig(sweeps=sweeps)
            )


class TestKernelRandom:
    """The kernel's MT19937 reproduces ``random.random()`` exactly."""

    @pytest.mark.parametrize("warmup_words", [0, 1, 623])
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**40 + 7, "text seed"])
    def test_draws_and_state_match_python(self, seed, warmup_words):
        import numpy as np

        from repro.kernels import metrics as metrics_kernel

        kern = metrics_kernel.load()
        if kern is None:
            pytest.skip("the metrics kernel is unavailable")
        rng = random.Random(seed)
        for _ in range(warmup_words):  # leave the read index mid-block
            rng.getrandbits(32)
        version, internal, gauss_next = rng.getstate()
        mt = np.asarray(internal[:-1], dtype=np.uint32)
        index = np.asarray([internal[-1]], dtype=np.int64)
        draws = np.zeros(1000)  # 2000 words: three regenerations
        kern.random(mt.ctypes.data, index.ctypes.data, len(draws), draws.ctypes.data)
        assert draws.tolist() == [rng.random() for _ in range(len(draws))]
        state = (version, tuple(mt.tolist()) + (int(index[0]),), gauss_next)
        assert state == rng.getstate()


class TestKernelShuffle:
    """The kernel's shuffle reproduces ``random.shuffle`` exactly."""

    @pytest.mark.parametrize(
        "length",
        sorted(
            {0, 1, 2, 3} | {2**k for k in range(11)} | {2**k + 1 for k in range(11)}
        ),
    )
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 7, "text seed"])
    def test_permutation_and_state_match_python(self, seed, length):
        import numpy as np

        from repro.kernels import metrics as metrics_kernel

        kern = metrics_kernel.load()
        if kern is None:
            pytest.skip("the metrics kernel is unavailable")
        rng = random.Random(seed)
        rng.getrandbits(32 * (length % 5))  # vary the read index
        version, internal, gauss_next = rng.getstate()
        mt = np.asarray(internal[:-1], dtype=np.uint32)
        index = np.asarray([internal[-1]], dtype=np.int64)
        items = np.arange(max(length, 1), dtype=np.int64)
        kern.shuffle(mt.ctypes.data, index.ctypes.data, length, items.ctypes.data)
        expected = list(range(length))
        rng.shuffle(expected)
        assert items[:length].tolist() == expected
        state = (version, tuple(mt.tolist()) + (int(index[0]),), gauss_next)
        assert state == rng.getstate()
