"""Unit tests for the cycle-accurate braid simulator (repro.routing.simulator)."""

import contextlib
import re

import pytest

from repro.circuits import (
    barrier,
    cnot,
    critical_path_length,
    cxx,
    h,
    inject_t,
    meas_x,
)
from repro.circuits.gates import DEFAULT_DURATIONS, GateKind
from repro.mapping import Placement, linear_factory_placement, random_circuit_placement
from repro.routing import (
    BraidRouter,
    HopError,
    RoutingDeadlockError,
    SimulationCache,
    SimulatorConfig,
    check_point,
    simulate,
    simulate_batch,
    simulate_reference,
)
from conftest import kernel_disabled


def line_placement(num_qubits, width=None):
    width = width or num_qubits
    return Placement(
        width=width,
        height=(num_qubits + width - 1) // width,
        positions={q: (q // width, q % width) for q in range(num_qubits)},
    )


class TestBasicSemantics:
    def test_empty_circuit(self):
        result = simulate([], line_placement(1))
        assert result.latency == 0
        assert result.volume == 0

    def test_single_gate_latency_is_duration(self):
        latency = simulate([cnot(0, 1)], line_placement(2)).latency
        assert latency == DEFAULT_DURATIONS[GateKind.CNOT]

    def test_dependent_gates_serialise(self):
        gates = [cnot(0, 1), cnot(1, 2)]
        latency = simulate(gates, line_placement(3)).latency
        assert latency == 2 * DEFAULT_DURATIONS[GateKind.CNOT]

    def test_independent_distant_gates_run_in_parallel(self):
        placement = Placement(
            width=8,
            height=3,
            positions={0: (0, 0), 1: (0, 7), 2: (2, 0), 3: (2, 7)},
        )
        latency = simulate([cnot(0, 1), cnot(2, 3)], placement).latency
        assert latency == DEFAULT_DURATIONS[GateKind.CNOT]

    def test_latency_never_below_critical_path(self, single_level_k4):
        placement = random_circuit_placement(single_level_k4.circuit, seed=2)
        latency = simulate(single_level_k4.circuit, placement).latency
        assert latency >= critical_path_length(single_level_k4.circuit)

    def test_unplaced_qubit_rejected(self):
        with pytest.raises(ValueError):
            simulate([cnot(0, 5)], line_placement(2))

    def test_custom_durations(self):
        config = SimulatorConfig(durations={**DEFAULT_DURATIONS, GateKind.CNOT: 9})
        assert simulate([cnot(0, 1)], line_placement(2), config).latency == 9

    def test_max_cycles_guard(self):
        config = SimulatorConfig(max_cycles=0)
        gates = [cnot(0, 1), cnot(1, 2)]
        with pytest.raises(RuntimeError):
            simulate(gates, line_placement(3), config)


class TestCongestion:
    def crossing_gates_and_placement(self):
        # Two braids in the same tile row with interleaved endpoints: their
        # preferred corridors (the channel row above the tiles) overlap, so
        # with a single route candidate one of them must stall.
        placement = Placement(
            width=6,
            height=1,
            positions={0: (0, 0), 1: (0, 3), 2: (0, 1), 3: (0, 4)},
        )
        return [cnot(0, 1), cnot(2, 3)], placement

    def test_conflicting_braids_stall(self):
        gates, placement = self.crossing_gates_and_placement()
        config = SimulatorConfig(max_candidates=1)
        result = simulate(gates, placement, config)
        assert result.latency > DEFAULT_DURATIONS[GateKind.CNOT]
        assert result.stall_events > 0

    def test_more_candidates_reduce_stalls(self):
        gates, placement = self.crossing_gates_and_placement()
        strict = simulate(gates, placement, SimulatorConfig(max_candidates=1))
        loose = simulate(gates, placement, SimulatorConfig(max_candidates=8))
        assert loose.latency <= strict.latency

    def test_stall_cycles_accounting(self):
        gates, placement = self.crossing_gates_and_placement()
        result = simulate(gates, placement, SimulatorConfig(max_candidates=1))
        assert (
            result.stall_cycles
            >= result.latency - 2 * DEFAULT_DURATIONS[GateKind.CNOT]
        )

    def test_random_mapping_never_faster_than_linear(self, single_level_k8):
        linear = linear_factory_placement(single_level_k8)
        random_place = random_circuit_placement(single_level_k8.circuit, seed=1)
        linear_latency = simulate(single_level_k8.circuit, linear).latency
        random_latency = simulate(single_level_k8.circuit, random_place).latency
        assert random_latency >= linear_latency

    def test_detours_never_slower_than_stalling(self, single_level_k8):
        # Stall-on-conflict is the paper's semantics; a detour-capable
        # router with more candidates can only help, down to the bound.
        placement = random_circuit_placement(single_level_k8.circuit, seed=2)
        stall_only = simulate(
            single_level_k8.circuit, placement, SimulatorConfig(max_candidates=1)
        ).latency
        flexible = simulate(
            single_level_k8.circuit,
            placement,
            SimulatorConfig(max_candidates=8, allow_detour=True),
        ).latency
        assert critical_path_length(single_level_k8.circuit) <= flexible <= stall_only


class TestGateKinds:
    def test_single_qubit_gates_do_not_consume_channels(self):
        gates = [h(0), h(1), h(2)]
        result = simulate(gates, line_placement(3))
        assert result.braided_gates == 0
        assert result.latency == DEFAULT_DURATIONS[GateKind.H]

    def test_cxx_counts_as_one_braid(self):
        gates = [cxx(0, [1, 2, 3])]
        result = simulate(gates, line_placement(4))
        assert result.braided_gates == 1
        assert result.max_concurrent_braids == 1

    def test_barrier_synchronises(self):
        gates = [cnot(0, 1), barrier(), cnot(2, 3)]
        placement = Placement(
            width=8,
            height=3,
            positions={0: (0, 0), 1: (0, 7), 2: (2, 0), 3: (2, 7)},
        )
        latency = simulate(gates, placement).latency
        without_barrier = simulate([cnot(0, 1), cnot(2, 3)], placement).latency
        assert latency > without_barrier

    def test_measurement_and_injection(self):
        gates = [inject_t(0, 1), meas_x(1)]
        latency = simulate(gates, line_placement(2)).latency
        expected = (
            DEFAULT_DURATIONS[GateKind.INJECT_T] + DEFAULT_DURATIONS[GateKind.MEAS_X]
        )
        assert latency == expected

    def test_hop_lengthens_braid_footprint(self):
        placement = Placement(
            width=6, height=6, positions={0: (0, 0), 1: (0, 5)}
        )
        direct = simulate([cnot(0, 1)], placement)
        via_hop = simulate(
            [cnot(0, 1)], placement, SimulatorConfig(hops={0: (5, 2)})
        )
        assert via_hop.total_braid_cells > direct.total_braid_cells


class TestStallCounters:
    """Pinned reference-engine stall accounting (see SimulationResult docs).

    ``stall_events`` is the legacy retry count (one per stalled gate per
    completion event), ``distinct_stalls`` counts gates that ever stalled,
    ``wakeups`` counts parked-gate retries triggered by a freed blocker.
    The literals below were produced by ``simulate_reference`` and pin the
    semantics for both engines.
    """

    def crossing_case(self):
        placement = Placement(
            width=6,
            height=1,
            positions={0: (0, 0), 1: (0, 3), 2: (0, 1), 3: (0, 4)},
        )
        return [cnot(0, 1), cnot(2, 3)], placement, SimulatorConfig(max_candidates=1)

    def test_crossing_braids_pinned_counters(self):
        gates, placement, config = self.crossing_case()
        for engine in (simulate, simulate_reference):
            result = engine(gates, placement, config)
            assert result.stall_events == 1
            assert result.distinct_stalls == 1
            assert result.wakeups == 1
            assert result.stall_cycles == 2

    def test_factory_random_placement_pinned_counters(self, single_level_k8):
        placement = random_circuit_placement(single_level_k8.circuit, seed=1)
        config = SimulatorConfig(max_candidates=2)
        for engine in (simulate, simulate_reference):
            result = engine(single_level_k8.circuit, placement, config)
            assert result.stall_events == 63
            assert result.distinct_stalls == 20
            assert result.wakeups == 49
            assert result.stall_cycles == 126
            assert result.latency == 74

    def test_counter_relations(self, single_level_k8):
        placement = random_circuit_placement(single_level_k8.circuit, seed=2)
        result = simulate(single_level_k8.circuit, placement)
        # Every stalled gate stalls at least once; every wakeup retries a
        # previously stalled gate, and a gate is woken at most once per
        # completion event, so wakeups never exceed the legacy retry count.
        assert 0 < result.distinct_stalls <= result.stall_events
        assert result.distinct_stalls <= result.wakeups <= result.stall_events

    def test_unstalled_run_reports_zero(self):
        placement = Placement(
            width=8,
            height=3,
            positions={0: (0, 0), 1: (0, 7), 2: (2, 0), 3: (2, 7)},
        )
        result = simulate([cnot(0, 1), cnot(2, 3)], placement)
        assert result.stall_events == 0
        assert result.distinct_stalls == 0
        assert result.wakeups == 0

    def test_empty_circuit_counters(self):
        result = simulate([], line_placement(1))
        assert result.stall_events == 0
        assert result.distinct_stalls == 0
        assert result.wakeups == 0


class TestRoutingDeadlock:
    """The deadlock path: ready braids, idle mesh, no route.

    The real router always finds a route on an idle mesh (rectilinear
    candidates exist for every pair), so the error is exercised with a
    router that can never route — both entry points must diagnose the same
    deadlock rather than spinning.
    """

    #: The kernel plans its own routes; a config whose points run on the
    #: reference (and so through the monkeypatched router) is one with
    #: ``allow_detour``.
    ROUTER_PATH_CONFIG = SimulatorConfig(allow_detour=True)

    def _break_router(self, monkeypatch):
        monkeypatch.setattr(
            BraidRouter, "route_pair", lambda self, a, b, locked, hop=None: None
        )

    def test_wakeup_engine_raises(self, monkeypatch):
        self._break_router(monkeypatch)
        with pytest.raises(RoutingDeadlockError, match="1 gates cannot be routed"):
            simulate([cnot(0, 1)], line_placement(2), self.ROUTER_PATH_CONFIG)

    def test_reference_engine_raises(self, monkeypatch):
        self._break_router(monkeypatch)
        with pytest.raises(RoutingDeadlockError, match="1 gates cannot be routed"):
            simulate_reference([cnot(0, 1)], line_placement(2))

    def test_deadlock_waits_for_inflight_braids(self, monkeypatch):
        # With a braid already in flight the stalled gate is not a deadlock
        # yet; the error fires once the mesh is idle and it still cannot
        # route.
        calls = {"n": 0}

        def flaky_pair(self, a, b, locked, hop=None):
            calls["n"] += 1
            if calls["n"] == 1:
                return original(self, a, b, locked, hop=hop)
            return None

        original = BraidRouter.route_pair
        monkeypatch.setattr(BraidRouter, "route_pair", flaky_pair)
        with pytest.raises(RoutingDeadlockError):
            simulate_reference([cnot(0, 1), cnot(2, 3)], line_placement(4))
        assert calls["n"] > 2  # the stalled gate was re-tried

        calls["n"] = 0
        with pytest.raises(RoutingDeadlockError):
            simulate(
                [cnot(0, 1), cnot(2, 3)],
                line_placement(4),
                self.ROUTER_PATH_CONFIG,
            )


def _invalid_point(case):
    """A point ``check_point`` rejects: ``(gates, placement, config)``.

    A valid ``Placement`` never puts a qubit outside its grid or two qubits
    on one tile, so those cases edit ``positions`` behind its back.
    """
    gates = (cnot(0, 1), cxx(0, [1, 2]), cnot(1, 2))
    placement = line_placement(3)
    config = SimulatorConfig()
    if case.startswith("hop"):
        cell = {"hop below": (1, 0), "hop right": (0, 3), "hop far": (10**4,) * 2}
        config = SimulatorConfig(hops={0: cell[case]})
    elif case == "shared tile":
        placement.positions[2] = (0, 0)  # a star leg on its control's tile
    elif case == "unused qubit on a shared tile":
        placement.positions[3] = (0, 1)
    elif case == "qubit off the grid":
        placement.positions[2] = (0, 5)
    else:
        del placement.positions[2]
    return gates, placement, config


INVALID_POINTS = {
    "hop below": "the hop of gate 0 at tile (1, 0) lies outside the 1x3 grid",
    "hop right": "the hop of gate 0 at tile (0, 3) lies outside the 1x3 grid",
    "hop far": "the hop of gate 0 at tile (10000, 10000) lies outside the 1x3",
    "shared tile": "qubits 0 and 2 both placed at (0, 0)",
    "unused qubit on a shared tile": "qubits 1 and 3 both placed at (0, 1)",
    "qubit off the grid": "qubit 2 placed at (0, 5), outside 1x3 grid",
    "missing qubit": "1 qubits used by the circuit are not placed (first few: [2])",
}


class TestInvalidPoints:
    """Every engine and entry point rejects a point ``check_point`` rejects,
    with the same ``ValueError``, before simulating anything."""

    ENTRIES = {
        "simulate": lambda point: simulate(*point),
        "simulate_reference": lambda point: simulate_reference(*point),
        "simulate_batch": lambda point: simulate_batch([point]),
        "batch with valid points": lambda point: simulate_batch(
            [(point[0], line_placement(3), None), point]
        ),
        "SimulationCache.simulate_batch": lambda point: (
            SimulationCache().simulate_batch([point])
        ),
    }

    @pytest.mark.parametrize("kernel", [True, False])
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("case", sorted(INVALID_POINTS))
    def test_rejected_with_one_message(self, case, entry, kernel):
        point = _invalid_point(case)
        error = HopError if case.startswith("hop") else ValueError
        context = contextlib.nullcontext() if kernel else kernel_disabled()
        message = re.escape(INVALID_POINTS[case])
        with context, pytest.raises(error, match=message) as raised:
            self.ENTRIES[entry](point)
        if not case.startswith("hop"):
            assert not isinstance(raised.value, HopError)
        with pytest.raises(error) as direct:
            check_point((0, 1, 2), point[1], point[2])
        assert str(direct.value) == str(raised.value)

    def test_a_rejected_batch_leaves_the_cache_untouched(self):
        cache = SimulationCache()
        good = ((cnot(0, 1),), line_placement(2), None)
        cache.simulate(*good)
        with pytest.raises(HopError):
            cache.simulate_batch([good, _invalid_point("hop far")])
        assert (len(cache), cache.hits, cache.misses) == (1, 0, 1)


class TestResultFields:
    def test_gate_times_recorded(self, single_level_k4, k4_linear_placement):
        result = simulate(single_level_k4.circuit, k4_linear_placement)
        assert len(result.gate_start) == len(single_level_k4.circuit)
        assert all(start >= 0 for start in result.gate_start)
        assert all(
            end > start for start, end in zip(result.gate_start, result.gate_end)
        )
        assert result.latency == max(result.gate_end)

    def test_volume_is_area_times_latency(self, single_level_k4, k4_linear_placement):
        result = simulate(single_level_k4.circuit, k4_linear_placement)
        assert result.volume == result.area * result.latency

    def test_average_braid_length_positive(self, single_level_k4, k4_linear_placement):
        result = simulate(single_level_k4.circuit, k4_linear_placement)
        assert result.average_braid_length > 0

    def test_deterministic(self, single_level_k4, k4_random_placement):
        first = simulate(single_level_k4.circuit, k4_random_placement)
        second = simulate(single_level_k4.circuit, k4_random_placement)
        assert first.latency == second.latency
        assert first.gate_start == second.gate_start

    def test_gate_start_respects_dependencies(
        self, single_level_k4, k4_linear_placement
    ):
        from repro.circuits import build_dependency_dag

        result = simulate(single_level_k4.circuit, k4_linear_placement)
        dag = build_dependency_dag(single_level_k4.circuit.gates)
        for index, preds in enumerate(dag.predecessors):
            for pred in preds:
                assert result.gate_start[index] >= result.gate_end[pred]


class TestSimulatorConfigValidation:
    """Bad knobs fail at construction, naming ``SimulatorConfig.<field>``."""

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("max_candidates", "x", TypeError),
            ("max_candidates", 2.0, TypeError),
            ("max_candidates", True, TypeError),
            ("max_candidates", 0, ValueError),
            ("max_candidates", -5, ValueError),
            ("allow_detour", 1, TypeError),
            ("detour_slack", "2", TypeError),
            ("detour_slack", -0.5, ValueError),
            ("detour_slack", float("nan"), ValueError),
            ("detour_slack", float("inf"), ValueError),
            ("max_cycles", -1, ValueError),
            ("max_cycles", 1.5, TypeError),
            ("durations", [("cnot", 2)], TypeError),
            ("durations", {"cnot": 2}, TypeError),
            ("durations", {GateKind.CNOT: -1}, ValueError),
            ("durations", {GateKind.CNOT: 2.5}, TypeError),
            ("hops", [(0, (1, 1))], TypeError),
            ("hops", {-1: (1, 1)}, ValueError),
            ("hops", {"0": (1, 1)}, TypeError),
            ("hops", {0: (-1, 0)}, ValueError),
            ("hops", {0: (1, 1, 1)}, TypeError),
            ("hops", {0: "ab"}, TypeError),
            ("hops", {0: (1.0, 1)}, TypeError),
        ],
    )
    def test_rejects(self, field, value, error):
        with pytest.raises(error, match=f"SimulatorConfig.{field}"):
            SimulatorConfig(**{field: value})

    def test_accepts_boundaries(self):
        config = SimulatorConfig(
            max_candidates=1,
            detour_slack=0,
            max_cycles=0,
            durations={GateKind.CNOT: 0},
            hops={0: (0, 0), 3: [2, 1]},
        )
        assert config.max_candidates == 1
        assert SimulatorConfig().durations == DEFAULT_DURATIONS
