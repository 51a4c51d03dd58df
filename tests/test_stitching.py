"""Unit tests for the hierarchical stitching mapper (repro.mapping.stitching)."""

import functools
import random

import numpy as np
import pytest

from repro.distillation import (
    FactorySpec,
    ReusePolicy,
    build_factory,
    validate_port_map,
)
from repro.experiments.fig9_permutation import HOP_MODES
from repro.graphs.metrics import (
    _np_segments_cross,
    _segments_cross,
    segments_intersect,
    segments_intersect_array,
)
from repro.mapping import (
    StitchingConfig,
    hierarchical_stitching,
    linear_factory_placement,
    optimize_permutation_hops,
    permutation_gate_indices,
    stitched_mapping_for_factory,
)
from repro.mapping import stitching
from repro.mapping.stitching import optimize_permutation_hops_reference
from repro.routing import SimulatorConfig, simulate


@pytest.fixture(scope="module")
def stitched_cap4():
    return hierarchical_stitching(
        FactorySpec.from_capacity(4, 2), config=StitchingConfig(seed=0)
    )


class TestStitchedMapping:
    def test_every_qubit_placed(self, stitched_cap4):
        circuit = stitched_cap4.factory.circuit
        for qubit in range(circuit.num_qubits):
            assert qubit in stitched_cap4.placement
        stitched_cap4.placement.validate()

    def test_port_maps_are_valid(self, stitched_cap4):
        spec = stitched_cap4.factory.spec
        assert len(stitched_cap4.port_maps) == spec.levels - 1
        validate_port_map(spec, 1, stitched_cap4.port_maps[0])

    def test_hops_reference_permutation_gates(self, stitched_cap4):
        permutation = set(permutation_gate_indices(stitched_cap4.factory))
        assert set(stitched_cap4.hops) <= permutation
        assert stitched_cap4.hops  # annealed midpoint mode produces hops

    def test_hops_are_within_grid(self, stitched_cap4):
        placement = stitched_cap4.placement
        for hop in stitched_cap4.hops.values():
            assert 0 <= hop[0] < placement.height
            assert 0 <= hop[1] < placement.width

    def test_simulation_runs_with_hops(self, stitched_cap4):
        config = SimulatorConfig(hops=stitched_cap4.hops)
        result = simulate(
            stitched_cap4.factory.circuit, stitched_cap4.placement, config
        )
        assert result.latency > 0

    def test_later_round_modules_are_central(self, stitched_cap4):
        # The round-2 modules should sit closer to the grid centre than the
        # average round-1 module (the Fig. 8 arrangement).
        placement = stitched_cap4.placement
        factory = stitched_cap4.factory
        centre = ((placement.height - 1) / 2.0, (placement.width - 1) / 2.0)

        def mean_distance(modules):
            distances = []
            for module in modules:
                for qubit in module.anc_qubits:
                    row, col = placement.positions[qubit]
                    distances.append(abs(row - centre[0]) + abs(col - centre[1]))
            return sum(distances) / len(distances)

        assert mean_distance(factory.rounds[1]) < mean_distance(factory.rounds[0])


class TestPermutationGateIndices:
    def test_single_level_has_no_permutation_gates(self, single_level_k4):
        assert permutation_gate_indices(single_level_k4) == []

    def test_count_matches_permutation_edges(self, two_level_cap4):
        # Each forwarded output is injected (T then T-dagger is not applied to
        # forwarded outputs; each is consumed by exactly one injection pair
        # slot), so there is at least one permutation braid per edge.
        indices = permutation_gate_indices(two_level_cap4)
        assert len(indices) >= len(two_level_cap4.permutation_edges)

    def test_indices_point_at_injections(self, two_level_cap4):
        from repro.circuits import GateKind

        for index in permutation_gate_indices(two_level_cap4):
            assert two_level_cap4.circuit[index].kind in (
                GateKind.INJECT_T,
                GateKind.INJECT_TDAG,
            )


class TestHopModes:
    @pytest.mark.parametrize("mode", HOP_MODES)
    def test_hop_modes_produce_valid_hops(self, two_level_cap4, mode):
        placement = linear_factory_placement(two_level_cap4)
        hops = optimize_permutation_hops(
            two_level_cap4,
            placement,
            StitchingConfig(hop_mode=mode, hop_sweeps=1, seed=0),
        )
        if mode == "none":
            assert hops == {}
        else:
            assert hops
            for hop in hops.values():
                assert placement.in_bounds(hop)

    def test_unknown_module_mapper_rejected(self):
        with pytest.raises(ValueError):
            hierarchical_stitching(
                FactorySpec.from_capacity(4, 2),
                config=StitchingConfig(module_mapper="bogus"),
            )


class TestStitchingVariants:
    def test_graph_partition_module_mapper(self):
        stitched = hierarchical_stitching(
            FactorySpec.from_capacity(4, 2),
            config=StitchingConfig(
                module_mapper="graph_partition", hop_sweeps=1, seed=0
            ),
        )
        circuit = stitched.factory.circuit
        for qubit in range(circuit.num_qubits):
            assert qubit in stitched.placement

    def test_reuse_policy_supported(self):
        stitched = hierarchical_stitching(
            FactorySpec.from_capacity(4, 2),
            reuse_policy=ReusePolicy.REUSE,
            config=StitchingConfig(hop_sweeps=1, seed=0),
        )
        circuit = stitched.factory.circuit
        for qubit in range(circuit.num_qubits):
            assert qubit in stitched.placement

    def test_stitched_mapping_for_existing_factory(self, two_level_cap4):
        stitched = stitched_mapping_for_factory(
            two_level_cap4, StitchingConfig(hop_sweeps=1, seed=0)
        )
        assert stitched.factory is two_level_cap4
        for qubit in range(two_level_cap4.circuit.num_qubits):
            assert qubit in stitched.placement

    def test_port_reassignment_can_be_disabled(self):
        stitched = hierarchical_stitching(
            FactorySpec.from_capacity(4, 2),
            config=StitchingConfig(reassign_ports=False, hop_sweeps=1, seed=0),
        )
        assert stitched.port_maps == []

    def test_single_level_stitching_works(self):
        stitched = hierarchical_stitching(
            FactorySpec(k=4, levels=1), config=StitchingConfig(seed=0)
        )
        assert stitched.hops == {}
        assert stitched.placement.num_qubits == stitched.factory.circuit.num_qubits


# ----------------------------------------------------------------------
# Permutation-hop annealer: array fast path vs the scalar oracle
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _layout(capacity, reuse, kind):
    """(factory, placement) of a two-level factory, stitched or linear."""
    spec = FactorySpec.from_capacity(capacity, 2)
    if kind == "stitched":
        stitched = hierarchical_stitching(
            spec, reuse_policy=reuse, config=StitchingConfig(hop_mode="none")
        )
        return stitched.factory, stitched.placement
    factory = build_factory(spec, reuse_policy=reuse, barriers_between_rounds=True)
    return factory, linear_factory_placement(factory)


def _assert_hop_parity(capacity, reuse, kind, config):
    factory, placement = _layout(capacity, reuse, kind)
    fast = optimize_permutation_hops(factory, placement, config)
    reference = optimize_permutation_hops_reference(factory, placement, config)
    assert fast == reference
    assert list(fast) == list(reference)  # same insertion (gate) order


class TestHopAnnealerParity:
    """``optimize_permutation_hops`` == its scalar oracle, hop for hop."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["stitched", "linear"])
    @pytest.mark.parametrize("reuse", [ReusePolicy.NO_REUSE, ReusePolicy.REUSE])
    @pytest.mark.parametrize("mode", HOP_MODES)
    def test_capacity_4(self, mode, reuse, kind, seed):
        config = StitchingConfig(hop_mode=mode, hop_sweeps=2, seed=seed)
        _assert_hop_parity(4, reuse, kind, config)

    # One sweep at capacity 16: the scalar oracle costs ~1 s per sweep there.
    @pytest.mark.parametrize("kind", ["stitched", "linear"])
    @pytest.mark.parametrize("reuse", [ReusePolicy.NO_REUSE, ReusePolicy.REUSE])
    @pytest.mark.parametrize("mode", HOP_MODES)
    def test_capacity_16(self, mode, reuse, kind):
        config = StitchingConfig(hop_mode=mode, hop_sweeps=1, seed=3)
        _assert_hop_parity(16, reuse, kind, config)

    def test_default_config_on_stitched_layout(self):
        _assert_hop_parity(4, ReusePolicy.NO_REUSE, "stitched", StitchingConfig())

    def test_zero_sweeps_keeps_the_starting_hops(self):
        config = StitchingConfig(hop_mode="annealed_random", hop_sweeps=0, seed=5)
        _assert_hop_parity(4, ReusePolicy.NO_REUSE, "linear", config)

    @pytest.mark.parametrize("mode", ["annealed_random", "annealed_midpoint"])
    def test_one_braid_has_no_other_braids(self, monkeypatch, mode):
        real = stitching.permutation_gate_indices
        monkeypatch.setattr(
            stitching, "permutation_gate_indices", lambda factory: real(factory)[:1]
        )
        factory, placement = _layout(4, ReusePolicy.NO_REUSE, "stitched")
        config = StitchingConfig(hop_mode=mode, seed=4)
        fast = optimize_permutation_hops(factory, placement, config)
        assert len(fast) == 1
        assert fast == optimize_permutation_hops_reference(factory, placement, config)


def _segment_row(segment):
    (a, b), (c, d) = segment
    return (a, b, c, d)


def _random_segment(rng, size):
    return (
        (float(rng.randrange(size)), float(rng.randrange(size))),
        (float(rng.randrange(size)), float(rng.randrange(size))),
    )


class TestSegmentArrayPredicate:
    """The array predicates replay ``_segments_cross``/``segments_intersect``."""

    EDGE_CASES = [
        # zero-length segment (a hop on its braid's endpoint) inside another
        (((1.0, 1.0), (1.0, 1.0)), ((0.0, 0.0), (2.0, 2.0))),
        (((1.0, 1.0), (1.0, 1.0)), ((1.0, 1.0), (3.0, 1.0))),
        (((2.0, 0.0), (2.0, 0.0)), ((2.0, 0.0), (2.0, 0.0))),
        # shared endpoints: excluded by coordinate
        (((0.0, 0.0), (1.0, 1.0)), ((1.0, 1.0), (2.0, 0.0))),
        (((0.0, 0.0), (2.0, 2.0)), ((0.0, 0.0), (2.0, 2.0))),
        # collinear overlaps and collinear disjoint runs
        (((0.0, 0.0), (3.0, 0.0)), ((1.0, 0.0), (4.0, 0.0))),
        (((0.0, 0.0), (1.0, 0.0)), ((2.0, 0.0), (3.0, 0.0))),
        (((0.0, 0.0), (4.0, 4.0)), ((1.0, 1.0), (2.0, 2.0))),
        # a proper crossing and a T-junction
        (((0.0, 0.0), (2.0, 2.0)), ((0.0, 2.0), (2.0, 0.0))),
        (((0.0, 1.0), (2.0, 1.0)), ((1.0, 1.0), (1.0, 3.0))),
    ]

    def _check(self, pairs):
        a = np.array([_segment_row(s) for s, _ in pairs], dtype=float)
        b = np.array([_segment_row(t) for _, t in pairs], dtype=float)
        intersect = segments_intersect_array(a, b)
        cross = _np_segments_cross(a, b)
        for row, (s, t) in enumerate(pairs):
            assert bool(intersect[row]) == segments_intersect(*s, *t), (s, t)
            assert bool(cross[row]) == _segments_cross(*s, *t), (s, t)

    def test_edge_cases(self):
        pairs = self.EDGE_CASES + [(t, s) for s, t in self.EDGE_CASES]
        self._check(pairs)

    @pytest.mark.parametrize("size", [3, 5, 9])
    def test_random_small_integer_segments(self, size):
        rng = random.Random(size)
        pairs = [
            (_random_segment(rng, size), _random_segment(rng, size))
            for _ in range(3000)
        ]
        self._check(pairs)

    def test_broadcast_pair_matrix(self):
        rng = random.Random(7)
        mine = [_random_segment(rng, 5) for _ in range(12)]
        others = [_random_segment(rng, 5) for _ in range(20)]
        a = np.array([_segment_row(s) for s in mine], dtype=float)
        b = np.array([_segment_row(t) for t in others], dtype=float)
        hits = segments_intersect_array(a[:, None, :], b[None, :, :])
        assert hits.shape == (12, 20)
        for i, s in enumerate(mine):
            for j, t in enumerate(others):
                assert bool(hits[i, j]) == segments_intersect(*s, *t)

    def test_no_other_segments(self):
        a = np.array([[0.0, 0.0, 1.0, 1.0]])
        hits = segments_intersect_array(a[:, None, :], np.empty((1, 0, 4)))
        assert hits.shape == (1, 0)
        assert int(hits.sum()) == 0
