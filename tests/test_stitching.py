"""Unit tests for the hierarchical stitching mapper (repro.mapping.stitching)."""

import dataclasses
import functools
import random
import types

import pytest
from conftest import fuzz_corpus, kernel_disabled

from repro.circuits import Gate, GateKind
from repro.distillation import (
    FactorySpec,
    ReusePolicy,
    build_factory,
    validate_port_map,
)
from repro.kernels import metrics as metrics_kernel
from repro.mapping import (
    Placement,
    StitchingConfig,
    hierarchical_stitching,
    linear_factory_placement,
    optimize_permutation_hops,
    permutation_gate_indices,
    stitched_mapping_for_factory,
)
from repro.mapping import stitching
from repro.mapping.stitching import HOP_MODES, optimize_permutation_hops_reference
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


class TestStitchingConfigValidation:
    """Bad values fail at construction, naming the field, not mid-mapping."""

    @pytest.mark.parametrize("mode", HOP_MODES)
    def test_every_hop_mode_is_accepted(self, mode):
        assert StitchingConfig(hop_mode=mode).hop_mode == mode

    def test_in_range_values_are_accepted(self):
        config = StitchingConfig(
            module_mapper="graph_partition",
            refine_modules=True,
            hop_sweeps=0,
            gap=0,
            reassign_ports=False,
            seed=-7,
        )
        assert (config.hop_sweeps, config.gap, config.seed) == (0, 0, -7)

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("hop_mode", "bogus", ValueError),
            ("hop_mode", None, ValueError),
            ("module_mapper", "nope", ValueError),
            ("hop_sweeps", -3, ValueError),
            ("hop_sweeps", "3", TypeError),
            ("hop_sweeps", 2.0, TypeError),
            ("hop_sweeps", True, TypeError),
            ("gap", -1, ValueError),
            ("gap", 1.5, TypeError),
            ("seed", 1.5, TypeError),
            ("seed", "0", TypeError),
            ("seed", None, TypeError),
            ("refine_modules", 1, TypeError),
            ("reassign_ports", "yes", TypeError),
        ],
    )
    def test_bad_value_names_its_field(self, field, value, error):
        with pytest.raises(error, match=f"StitchingConfig.{field}"):
            StitchingConfig(**{field: value})

    def test_replace_is_validated_too(self):
        with pytest.raises(ValueError, match="StitchingConfig.hop_mode"):
            dataclasses.replace(StitchingConfig(), hop_mode="annealed")


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
# Permutation-hop annealer: kernel fast path vs the scalar oracle
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


def _random_hop_case(seed):
    """A seeded stub factory, a random placement and an annealing config.

    The stub carries only what the annealer reads: a circuit of
    ``inject_t`` braids (plus CNOTs, which are not permutation braids and
    shift the gate indices) and the ``permutation_edges`` naming their
    sources.  Braids draw their qubits from a small pool, so they share
    endpoints; single-row grids make every segment collinear, and tight
    grids put hops on braid endpoints (zero-length segments) and produce
    T-junctions.
    """
    rng = random.Random(seed)
    if rng.random() < 0.25:
        height, width = 1, rng.randint(2, 12)
    else:
        height, width = rng.randint(3, 12), rng.randint(3, 12)
    cells = [(row, col) for row in range(height) for col in range(width)]
    rng.shuffle(cells)
    qubits = rng.randint(2, min(len(cells), 16))
    placement = Placement(width=width, height=height)
    for qubit in range(qubits):
        placement.place(qubit, cells[qubit])
    braids = 1 if rng.random() < 0.15 else rng.randint(2, 20)
    circuit, sources = [], set()
    for _ in range(braids):
        source, target = rng.sample(range(qubits), 2)
        if rng.random() < 0.2:
            circuit.append(Gate(GateKind.CNOT, (source, target)))
        circuit.append(Gate(GateKind.INJECT_T, (source, target)))
        sources.add(source)
    factory = types.SimpleNamespace(
        circuit=circuit,
        permutation_edges=[
            types.SimpleNamespace(producer_qubit=qubit) for qubit in sorted(sources)
        ],
    )
    config = StitchingConfig(
        hop_mode=rng.choice(("annealed_random", "annealed_midpoint")),
        hop_sweeps=rng.randint(0, 3),
        seed=rng.randrange(1 << 30),
    )
    return factory, placement, config


class TestHopKernelFuzz:
    """The kernel sweep (``mc_hop_sweep``) against the scalar oracle on
    random layouts; ``--fuzz-iterations``/``--fuzz-seeds`` widen or replay
    the corpus."""

    def test_kernel_matches_the_oracle(self, request):
        if not metrics_kernel.available():
            pytest.skip("the metrics kernel is unavailable")

        def trial(seed):
            factory, placement, config = _random_hop_case(seed)
            fast = optimize_permutation_hops(factory, placement, config)
            reference = optimize_permutation_hops_reference(factory, placement, config)
            assert fast == reference and list(fast) == list(reference), (
                f"hops diverged on a {placement.height}x{placement.width} grid, "
                f"{len(reference)} braids, {config}"
            )

        fuzz_corpus(request, trial)

    def test_without_the_kernel_the_oracle_runs(self, monkeypatch):
        factory, placement = _layout(4, ReusePolicy.NO_REUSE, "stitched")
        config = StitchingConfig(hop_sweeps=1, seed=2)
        expected = optimize_permutation_hops_reference(factory, placement, config)
        calls = []
        real = stitching.optimize_permutation_hops_reference

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(stitching, "optimize_permutation_hops_reference", spy)
        with kernel_disabled():
            hops = optimize_permutation_hops(factory, placement, config)
        assert len(calls) == 1
        assert hops == expected
        assert list(hops) == list(expected)
