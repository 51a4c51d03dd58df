"""Randomized parity suite: :func:`repro.routing.simulate` vs the oracle.

:func:`repro.routing.simulate` runs a point in the compiled kernel when it
can plan it, and must produce **byte-identical**
``SimulationResult.to_dict()`` output to :func:`repro.routing.simulate_reference`
(frozenset occupancy, every stalled gate re-tried at every completion event)
on every input — timing, per-gate schedules and all three stall counters
included.  These tests sweep randomized circuits, placements, candidate
budgets, detour policies and Valiant-hop assignments; the oracle's own
wakeup-invariant assertion runs as part of every comparison.  Without the
kernel both sides are the oracle.
"""

from __future__ import annotations

import random

import pytest

from repro.circuits.gates import barrier, cnot, cxx, h, inject_t, meas_x
from repro.mapping import (
    Placement,
    linear_factory_placement,
    random_circuit_placement,
)
from repro.routing import (
    SimulationResult,
    SimulatorConfig,
    simulate,
    simulate_reference,
)


def random_placement(rng: random.Random, num_qubits: int) -> Placement:
    height, width = rng.randint(2, 5), rng.randint(2, 5)
    while height * width < num_qubits:
        width += 1
    cells = [(r, c) for r in range(height) for c in range(width)]
    rng.shuffle(cells)
    return Placement(
        width=width,
        height=height,
        positions={q: cells[q] for q in range(num_qubits)},
    )


def random_gates(rng: random.Random, num_qubits: int):
    gates = []
    for _ in range(rng.randint(10, 50)):
        kind = rng.random()
        if kind < 0.45:
            a, b = rng.sample(range(num_qubits), 2)
            gates.append(cnot(a, b))
        elif kind < 0.6:
            a, b = rng.sample(range(num_qubits), 2)
            gates.append(inject_t(a, b))
        elif kind < 0.75:
            qubits = rng.sample(range(num_qubits), rng.randint(3, min(5, num_qubits)))
            gates.append(cxx(qubits[0], qubits[1:]))
        elif kind < 0.85:
            gates.append(barrier())
        elif kind < 0.95:
            gates.append(h(rng.randrange(num_qubits)))
        else:
            gates.append(meas_x(rng.randrange(num_qubits)))
    return gates


def random_config(
    rng: random.Random, gates, placement: Placement
) -> SimulatorConfig:
    hops = {
        index: (rng.randrange(placement.height), rng.randrange(placement.width))
        for index, gate in enumerate(gates)
        if gate.kind.value in ("cnot", "inject_t") and rng.random() < 0.2
    }
    return SimulatorConfig(
        max_candidates=rng.choice([1, 2, 4, 8]),
        allow_detour=rng.random() < 0.4,
        detour_slack=rng.choice([1.5, 2.0, 4.0]),
        hops=hops if rng.random() < 0.5 else {},
    )


class TestRandomizedParity:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_circuit_byte_identical(self, seed):
        """Random circuits x placements x configs: identical to_dict output."""
        rng = random.Random(20260728 + seed)
        num_qubits = rng.randint(4, 12)
        placement = random_placement(rng, num_qubits)
        gates = random_gates(rng, num_qubits)
        config = random_config(rng, gates, placement)
        result = simulate(gates, placement, config)
        reference = simulate_reference(gates, placement, config)
        assert result.to_dict() == reference.to_dict()

    @pytest.mark.parametrize("max_candidates", [1, 2, 8])
    def test_factory_linear_placement(self, single_level_k4, max_candidates):
        placement = linear_factory_placement(single_level_k4)
        config = SimulatorConfig(max_candidates=max_candidates)
        result = simulate(single_level_k4.circuit, placement, config)
        reference = simulate_reference(single_level_k4.circuit, placement, config)
        assert result.to_dict() == reference.to_dict()

    @pytest.mark.parametrize("seed", [0, 3])
    def test_factory_congested_random_placement(self, single_level_k8, seed):
        """The stall-heavy geometry: a random placement of the Fig. 5 circuit."""
        placement = random_circuit_placement(single_level_k8.circuit, seed=seed)
        config = SimulatorConfig(max_candidates=2)
        result = simulate(single_level_k8.circuit, placement, config)
        reference = simulate_reference(single_level_k8.circuit, placement, config)
        assert result.stall_events > 0  # the scenario must actually stall
        assert result.to_dict() == reference.to_dict()

    def test_factory_detour_parity(self, single_level_k4):
        placement = random_circuit_placement(single_level_k4.circuit, seed=1)
        config = SimulatorConfig(allow_detour=True, detour_slack=3.0)
        result = simulate(single_level_k4.circuit, placement, config)
        reference = simulate_reference(single_level_k4.circuit, placement, config)
        assert result.to_dict() == reference.to_dict()

    def test_two_level_factory_parity(self, two_level_cap4):
        placement = random_circuit_placement(two_level_cap4.circuit, seed=2)
        config = SimulatorConfig(max_candidates=4)
        result = simulate(two_level_cap4.circuit, placement, config)
        reference = simulate_reference(two_level_cap4.circuit, placement, config)
        assert result.to_dict() == reference.to_dict()

    def test_hop_routing_parity(self):
        """Valiant-hop braids take the hop/fallback path."""
        placement = Placement(
            width=6,
            height=6,
            positions={q: (q // 6, q % 6) for q in range(12)},
        )
        gates = [cnot(0, 11), cnot(1, 10), cnot(2, 9)]
        config = SimulatorConfig(hops={0: (4, 2), 1: (5, 5)}, max_candidates=1)
        result = simulate(gates, placement, config)
        reference = simulate_reference(gates, placement, config)
        assert result.to_dict() == reference.to_dict()


class TestResultSerialization:
    def test_to_dict_round_trip(self, single_level_k4, k4_random_placement):
        result = simulate(single_level_k4.circuit, k4_random_placement)
        data = result.to_dict()
        assert data["volume"] == result.volume
        assert data["average_braid_length"] == result.average_braid_length
        assert SimulationResult.from_dict(data) == result
