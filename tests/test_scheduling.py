"""Unit tests for scheduling utilities (barriers, renaming, critical-path bounds)."""

import pytest

from repro.api import EvaluationRequest, Pipeline
from repro.circuits import (
    Circuit,
    GateKind,
    cnot,
    critical_path_length,
    h,
    meas_x,
)
from repro.circuits.gates import DEFAULT_DURATIONS
from repro.distillation import FactorySpec, ReusePolicy, build_factory
from repro.mapping import linear_factory_placement
from repro.routing import simulate
from repro.scheduling import (
    asap_timesteps,
    circuit_lower_bound,
    count_false_dependencies,
    expand_barriers_to_cxx,
    factory_area_lower_bound,
    factory_latency_lower_bound,
    factory_volume_lower_bound,
    insert_round_barriers,
    lower_bound_summary,
    rename_after_measurement,
    reorder_commuting_preparations,
    reuse_area_savings,
    sharing_after_measurement_pairs,
    strip_barriers,
    timestep_degree_bound,
)
from repro.scheduling import critical_path as critical_path_module


def reuse_circuit():
    """A circuit that measures a qubit and then reuses it."""
    circuit = Circuit("reuse")
    circuit.add_register("q", 3)
    circuit.append(h(0))
    circuit.append(cnot(0, 1))
    circuit.append(meas_x(1))
    circuit.append(h(1))          # reuse after measurement (false dependency)
    circuit.append(cnot(1, 2))
    circuit.append(meas_x(2))
    return circuit


class TestBarriers:
    def test_insert_round_barriers(self, two_level_cap4):
        slices = two_level_cap4.round_gate_slices
        rebuilt = insert_round_barriers(two_level_cap4.circuit, slices)
        assert sum(1 for g in rebuilt if g.is_barrier) == len(slices) - 1

    def test_strip_barriers(self, two_level_cap4):
        stripped = strip_barriers(two_level_cap4.circuit)
        assert all(not g.is_barrier for g in stripped)
        assert len(stripped) == len(two_level_cap4.circuit) - 1

    def test_strip_then_insert_is_consistent(self, two_level_cap4):
        stripped = strip_barriers(two_level_cap4.circuit)
        non_barrier_original = [g for g in two_level_cap4.circuit if not g.is_barrier]
        assert list(stripped.gates) == non_barrier_original

    def test_expand_barriers_to_cxx(self, two_level_cap4):
        expanded = expand_barriers_to_cxx(two_level_cap4.circuit)
        assert all(not g.is_barrier for g in expanded)
        cxx_machine_wide = [
            g
            for g in expanded
            if g.kind is GateKind.CXX
            and len(g.targets) == two_level_cap4.circuit.num_qubits
        ]
        assert len(cxx_machine_wide) == 1
        assert "barrier_anc" in expanded.registers

    def test_expand_without_barriers_is_identity_on_gates(self, single_level_k4):
        expanded = expand_barriers_to_cxx(single_level_k4.circuit)
        assert len(expanded) == len(single_level_k4.circuit)

    def test_barrier_extension_is_bounded_by_serial_rounds(self, two_level_cap4):
        # A barrier can at worst serialise the rounds: the barriered critical
        # path is bounded by the sum of the per-round critical paths plus the
        # barrier itself (Section V-A discusses why the practical effect is
        # small once the protocol's checkpoints are taken into account).
        with_barrier = critical_path_length(two_level_cap4.circuit)
        without_barrier = critical_path_length(strip_barriers(two_level_cap4.circuit))
        per_round = sum(
            critical_path_length(two_level_cap4.round_gates(r)) for r in (1, 2)
        )
        assert with_barrier >= without_barrier
        assert with_barrier <= per_round + 1

    def test_barrier_latency_cost_is_bounded(self, two_level_cap4):
        # Simulated on the linear layout, the barrier costs latency but at
        # most serialises the two rounds.
        placement = linear_factory_placement(two_level_cap4)
        with_barrier = simulate(two_level_cap4.circuit, placement).latency
        without = simulate(strip_barriers(two_level_cap4.circuit), placement).latency
        assert without <= with_barrier <= 2.5 * without


class TestTimesteps:
    def test_asap_timesteps_cover_all_gates(self, single_level_k4):
        steps = asap_timesteps(single_level_k4.circuit)
        assert sum(len(step) for step in steps) == len(single_level_k4.circuit)

    def test_timestep_degree_bound_at_most_two(self, single_level_k8):
        # The paper's observation: per timestep the two-qubit interaction
        # graph (multi-target fan-outs aside) is a union of vertex-disjoint
        # paths, so degree stays at most 2.
        assert timestep_degree_bound(
            single_level_k8.circuit, include_multi_target=False
        ) <= 2
        # With the CXX fan-outs included the control's degree is what grows.
        assert timestep_degree_bound(single_level_k8.circuit) >= 2

    def test_empty_circuit(self):
        assert asap_timesteps([]) == []
        assert timestep_degree_bound([]) == 0

    def test_reorder_commuting_preparations_preserves_counts(self, single_level_k4):
        hoisted = reorder_commuting_preparations(single_level_k4.circuit)
        assert len(hoisted) == len(single_level_k4.circuit)
        assert hoisted.gate_counts() == single_level_k4.circuit.gate_counts()

    def test_reorder_does_not_extend_critical_path(self, single_level_k4):
        hoisted = reorder_commuting_preparations(single_level_k4.circuit)
        assert critical_path_length(hoisted) <= critical_path_length(
            single_level_k4.circuit
        )


class TestRenaming:
    def test_sharing_after_measurement_detected(self):
        pairs = sharing_after_measurement_pairs(reuse_circuit())
        assert pairs == [(2, 3)]

    def test_count_false_dependencies(self):
        assert count_false_dependencies(reuse_circuit()) == 1

    def test_rename_removes_false_dependencies(self):
        renamed, log = rename_after_measurement(reuse_circuit())
        assert count_false_dependencies(renamed) == 0
        assert log == {1: [renamed.register("renamed")[0]]}

    def test_rename_adds_fresh_qubits(self):
        renamed, _log = rename_after_measurement(reuse_circuit())
        assert renamed.num_qubits == reuse_circuit().num_qubits + 1

    def test_rename_preserves_gate_count(self):
        renamed, _log = rename_after_measurement(reuse_circuit())
        assert len(renamed) == len(reuse_circuit())

    def test_rename_noop_without_reuse(self, single_level_k4):
        renamed, log = rename_after_measurement(single_level_k4.circuit)
        assert log == {}
        assert renamed.num_qubits == single_level_k4.circuit.num_qubits

    def test_reuse_factory_has_false_dependencies(
        self, two_level_cap4_reuse, two_level_cap4
    ):
        assert count_false_dependencies(two_level_cap4_reuse.circuit) > 0
        assert count_false_dependencies(two_level_cap4.circuit) == 0

    def test_rename_shortens_or_preserves_critical_path(self, two_level_cap4_reuse):
        renamed, _log = rename_after_measurement(two_level_cap4_reuse.circuit)
        assert critical_path_length(renamed) <= critical_path_length(
            two_level_cap4_reuse.circuit
        )

    def test_reuse_area_savings(self, two_level_cap4_reuse):
        assert reuse_area_savings(two_level_cap4_reuse.circuit) > 0


class TestLowerBounds:
    def test_circuit_lower_bound_matches_critical_path(self, single_level_k4):
        assert circuit_lower_bound(single_level_k4.circuit) == critical_path_length(
            single_level_k4.circuit
        )

    def test_factory_latency_bound_grows_with_capacity(self):
        small = factory_latency_lower_bound(FactorySpec(k=2, levels=1))
        large = factory_latency_lower_bound(FactorySpec(k=8, levels=1))
        assert large > small

    def test_factory_area_bound_is_largest_round(self):
        spec = FactorySpec(k=4, levels=2)
        assert factory_area_lower_bound(spec) == 20 * 33

    def test_volume_bound_is_product(self):
        spec = FactorySpec(k=2, levels=2)
        assert factory_volume_lower_bound(spec) == factory_latency_lower_bound(
            spec
        ) * factory_area_lower_bound(spec)

    def test_summary_keys(self):
        summary = lower_bound_summary(FactorySpec(k=2, levels=1))
        assert set(summary) == {"latency", "area", "volume"}
        assert summary["volume"] == summary["latency"] * summary["area"]

    def test_two_level_bound_exceeds_single_level(self):
        single = factory_volume_lower_bound(FactorySpec(k=4, levels=1))
        double = factory_volume_lower_bound(FactorySpec(k=4, levels=2))
        assert double > single


class TestLowerBoundMemo:
    """``factory_latency_lower_bound`` is memoized on ``(spec, durations)``."""

    @pytest.fixture
    def unbarriered_builds(self, monkeypatch):
        builds = []
        real_build = critical_path_module.build_factory

        def counting_build(spec, **kwargs):
            builds.append(spec)
            return real_build(spec, **kwargs)

        monkeypatch.setattr(critical_path_module, "build_factory", counting_build)
        critical_path_module._cached_latency_lower_bound.cache_clear()
        yield builds
        critical_path_module._cached_latency_lower_bound.cache_clear()

    def test_evaluations_of_one_spec_build_once(self, unbarriered_builds):
        pipeline = Pipeline()
        points = [
            pipeline.evaluate(EvaluationRequest(method="random", capacity=4, seed=s))
            for s in range(4)
        ]
        assert pipeline.stats.evaluations == 4
        assert len(unbarriered_builds) == 1
        assert len({point.critical_latency for point in points}) == 1

    def test_non_default_durations_get_their_own_entry(self, unbarriered_builds):
        spec = FactorySpec(k=2, levels=1)
        default = factory_latency_lower_bound(spec)
        slow = dict(DEFAULT_DURATIONS)
        slow[GateKind.CNOT] += 3
        bound = factory_latency_lower_bound(spec, slow)
        assert len(unbarriered_builds) == 2
        uncached = critical_path_length(
            build_factory(
                spec,
                reuse_policy=ReusePolicy.NO_REUSE,
                barriers_between_rounds=False,
            ).circuit,
            slow,
        )
        assert bound == uncached
        assert bound > default
        # An equal durations table is the same entry; so is the default.
        assert factory_latency_lower_bound(spec, dict(slow)) == bound
        assert factory_latency_lower_bound(spec) == default
        assert len(unbarriered_builds) == 2
