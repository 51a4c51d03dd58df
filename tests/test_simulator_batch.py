"""Invariants of the compiled simulator and its dispatch.

:func:`repro.routing.simulate_batch` and :func:`repro.routing.simulate`
promise byte-identical ``SimulationResult.to_dict()`` output to
:func:`repro.routing.simulate_reference` at **any** batch size, grouping
and mesh size.  These tests pin the invariants that promise decomposes
into — batch-of-1 equals the reference, grouping/order independence,
early retirees not perturbing survivors, the compiled candidate table
matching ``BraidRouter._pair_plan``, the hop gate's watch rule — plus the
dispatch contract: every point but a BFS detour runs in the kernel, and
``REPRO_NO_KERNEL`` pins the reference.  The randomized end-to-end sweep
lives in ``test_simulator_fuzz.py``; the points every engine rejects are
in ``test_simulator.py::TestInvalidPoints``.
"""

from __future__ import annotations

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.circuits.gates import GateKind, cnot, cxx
from repro.distillation import (
    ReusePolicy,
    build_single_level_factory,
    build_two_level_factory,
)
from repro.mapping import (
    Placement,
    linear_factory_placement,
    random_circuit_placement,
)
from repro.routing import (
    BraidRouter,
    Mesh,
    SimulatorConfig,
    kernel_available,
    simulate,
    simulate_batch,
    simulate_reference,
)
from repro.routing import batchsim
from repro.routing import kernel as kernel_module
from repro.routing import simulator as simulator_module
from repro.routing.simulator import _gate_list
from conftest import kernel_disabled


def available_engines():
    """Engines runnable in this environment.

    ``scalar`` is the per-point ``simulate_reference`` loop that
    ``simulate_batch`` runs when the kernel cannot be built (pinned here
    with ``REPRO_NO_KERNEL=1``); ``compiled`` is the kernel.
    """
    engines = ["scalar"]
    if kernel_available():
        engines.append("compiled")
    return engines


def run_batch(points, engine):
    """``simulate_batch`` on one engine (see :func:`available_engines`)."""
    if engine == "compiled":
        return simulate_batch(points)
    with kernel_disabled():
        return simulate_batch(points)


def dicts(results):
    return [result.to_dict() for result in results]


@pytest.fixture(scope="module")
def single_level_k2():
    return build_single_level_factory(2)


@pytest.fixture(scope="module")
def k4_points(single_level_k4):
    """A mixed point set over the K=4 factory: 2 placements x 3 configs."""
    gates = _gate_list(single_level_k4.circuit)
    placements = [
        linear_factory_placement(single_level_k4),
        random_circuit_placement(single_level_k4.circuit, seed=3),
    ]
    configs = [SimulatorConfig(max_candidates=mc) for mc in (1, 2, 8)]
    return [(gates, p, c) for p in placements for c in configs]


@pytest.fixture(scope="module")
def k4_expected(k4_points):
    return [simulate_reference(g, p, c).to_dict() for g, p, c in k4_points]


class TestBatchInvariants:
    @pytest.mark.parametrize("engine", available_engines())
    def test_batch_of_one_matches_scalar(self, single_level_k4, engine):
        placement = random_circuit_placement(single_level_k4.circuit, seed=7)
        config = SimulatorConfig(max_candidates=2)
        point = (single_level_k4.circuit, placement, config)
        batched = run_batch([point], engine)
        assert len(batched) == 1
        expected = simulate_reference(single_level_k4.circuit, placement, config)
        assert batched[0].to_dict() == expected.to_dict()

    @pytest.mark.parametrize("engine", available_engines())
    def test_full_batch_matches_scalar(self, k4_points, k4_expected, engine):
        assert dicts(run_batch(k4_points, engine)) == k4_expected

    @pytest.mark.parametrize("engine", available_engines())
    @pytest.mark.parametrize("size", [1, 3, 8])
    def test_split_independence(self, k4_points, k4_expected, engine, size):
        """Chunking a batch into sub-batches of any size changes nothing."""
        out = []
        for start in range(0, len(k4_points), size):
            out.extend(
                run_batch(k4_points[start:start + size], engine)
            )
        assert dicts(out) == k4_expected

    @pytest.mark.parametrize("engine", available_engines())
    def test_order_independence(self, k4_points, k4_expected, engine):
        """Permuting the request order permutes the results, nothing else."""
        order = [4, 0, 5, 2, 1, 3]
        permuted = run_batch([k4_points[i] for i in order], engine)
        assert dicts(permuted) == [k4_expected[i] for i in order]

    @pytest.mark.parametrize("engine", available_engines())
    def test_mixed_circuit_grouping(
        self, single_level_k4, single_level_k8, engine
    ):
        """Interleaved circuits group internally; results stay per-request."""
        points = []
        for seed in range(2):
            for factory in (single_level_k4, single_level_k8):
                placement = random_circuit_placement(
                    factory.circuit, seed=seed
                )
                points.append(
                    (factory.circuit, placement, SimulatorConfig(max_candidates=2))
                )
        expected = [simulate_reference(g, p, c).to_dict() for g, p, c in points]
        assert dicts(run_batch(points, engine)) == expected

    @pytest.mark.parametrize("engine", available_engines())
    def test_early_retirees_do_not_perturb_survivors(
        self, single_level_k8, engine
    ):
        """A quickly finishing point leaves long-running lane-mates exact.

        The linear placement of the K=8 factory finishes far earlier than
        the congested random placements batched with it; the survivors'
        results must equal their solo runs byte for byte.
        """
        gates = _gate_list(single_level_k8.circuit)
        fast = linear_factory_placement(single_level_k8)
        slow = [
            random_circuit_placement(single_level_k8.circuit, seed=s)
            for s in (0, 3)
        ]
        config = SimulatorConfig(max_candidates=1)
        points = [(gates, p, config) for p in [slow[0], fast, slow[1]]]
        solo = [simulate_reference(g, p, c) for g, p, c in points]
        assert solo[1].latency < min(solo[0].latency, solo[2].latency)
        assert dicts(run_batch(points, engine)) == dicts(solo)

    @pytest.mark.parametrize("engine", available_engines())
    def test_scalar_config_points_inside_batch(self, single_level_k4, engine):
        """Detour points fall back per point and hop points run in the
        kernel, without breaking the batch."""
        placement = random_circuit_placement(single_level_k4.circuit, seed=1)
        configs = [
            SimulatorConfig(max_candidates=2),
            SimulatorConfig(allow_detour=True, detour_slack=3.0),
            SimulatorConfig(hops={0: (1, 1)}, max_candidates=2),
        ]
        points = [(single_level_k4.circuit, placement, c) for c in configs]
        expected = [simulate_reference(g, p, c).to_dict() for g, p, c in points]
        assert dicts(run_batch(points, engine)) == expected

    @pytest.mark.parametrize("engine", available_engines())
    def test_stale_freed_bits_regression(self, engine):
        """Fuzz-found: an unparked retirement must not leak freed cells.

        Minimized from fuzz seed 11: gate 3 retires at a moment when
        nothing is parked, so the former numpy group engine once skipped
        consuming its freed-cell scratch rows; the next retirement then
        cleared cells of
        the braid issued in between, letting gate 5 issue one cycle early
        instead of stalling.
        """
        from repro.circuits.gates import h, inject_t

        gates = (
            cnot(5, 4), h(1), cnot(1, 2), cnot(4, 6), cnot(2, 1),
            inject_t(5, 6),
        )
        placement = Placement(
            width=3,
            height=4,
            positions={
                0: (0, 1), 1: (3, 0), 2: (3, 1), 3: (0, 2),
                4: (2, 0), 5: (3, 2), 6: (0, 0),
            },
        )
        config = SimulatorConfig(max_candidates=4)
        expected = simulate_reference(gates, placement, config)
        assert expected.stall_events == 1  # the scenario must actually stall
        points = [(gates, placement, config)] * 2
        batched = run_batch(points, engine)
        assert [r.to_dict() for r in batched] == [expected.to_dict()] * 2

    @pytest.mark.parametrize("engine", available_engines())
    def test_max_cycles_exceeded_parity(self, engine):
        """The reference's max_cycles error fires identically batched."""
        gates = (cnot(0, 1), cnot(2, 3), cnot(0, 3))
        placement = Placement(
            width=4,
            height=1,
            positions={q: (0, q) for q in range(4)},
        )
        points = [(gates, placement, SimulatorConfig(max_cycles=0))]
        with pytest.raises(RuntimeError, match="max_cycles=0"):
            run_batch(points, engine)


class TestEngineSelection:
    def test_unknown_engine_rejected(self, single_level_k4):
        """``REPRO_NO_KERNEL`` is the only selector: no per-call engine."""
        placement = linear_factory_placement(single_level_k4)
        for engine in ("auto", "compiled", "scalar"):
            with pytest.raises(TypeError, match="engine"):
                simulate_batch(
                    [(single_level_k4.circuit, placement, None)], engine=engine
                )

    def test_empty_batch(self):
        assert simulate_batch([]) == []

    def test_none_config_defaults(self, single_level_k4):
        placement = linear_factory_placement(single_level_k4)
        batched = simulate_batch([(single_level_k4.circuit, placement, None)])
        expected = simulate_reference(single_level_k4.circuit, placement)
        assert batched[0].to_dict() == expected.to_dict()

    def test_no_kernel_env_pins_python_paths(self, single_level_k4, monkeypatch):
        """REPRO_NO_KERNEL=1 disables the compiled engine, not correctness:
        every point, batched or single, runs on the reference."""
        placement = random_circuit_placement(single_level_k4.circuit, seed=5)
        points = [
            (single_level_k4.circuit, placement, SimulatorConfig(max_candidates=2)),
            (single_level_k4.circuit, placement, SimulatorConfig(max_candidates=8)),
        ]
        expected = [simulate_reference(g, p, c).to_dict() for g, p, c in points]
        with kernel_disabled():
            assert not kernel_available()
            assert kernel_module.load() is None
            calls = _counting(monkeypatch, simulator_module, "simulate_reference")
            assert dicts(simulate(*point) for point in points) == expected
            assert len(calls) == 2
            assert dicts(simulate_batch(points)) == expected


def _counting(monkeypatch, module, name):
    """Wrap ``module.name`` so each call is recorded; returns the call log."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.skipif(not kernel_available(), reason="needs the C kernel")
class TestCompiledCoverage:
    """What the kernel takes, and the per-point fallback for the rest."""

    def test_circuit_fingerprinted_once(self, monkeypatch):
        """N points of one ``Circuit`` hash its gates once, not N times."""
        circuit = Circuit("fingerprint-once")
        circuit.add_register("q", 4)
        circuit.extend([cnot(0, 1), cnot(2, 3), cnot(0, 3), cnot(1, 2)])
        placement = Placement(
            width=2, height=2,
            positions={0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)},
        )
        points = [
            (circuit, placement, SimulatorConfig(max_candidates=mc))
            for mc in (1, 2, 4, 8)
        ]
        calls = _counting(monkeypatch, simulator_module, "_gates_fingerprint")
        simulate_batch(points)
        assert len(calls) == 1

    def test_circuit_prepared_once(self, monkeypatch):
        """N ``simulate`` calls on one ``Circuit`` build its ``_Shared`` once.

        Batches of the same circuit reuse it too; a circuit that grew is
        prepared again, and a raw gate sequence every time.
        """
        circuit = Circuit("prepared-once")
        circuit.add_register("q", 4)
        circuit.extend([cnot(0, 1), cnot(2, 3), cnot(0, 3), cnot(1, 2)])
        placements = [
            Placement(width=2, height=2, positions=dict(enumerate(cells)))
            for cells in (
                [(0, 0), (0, 1), (1, 0), (1, 1)],
                [(1, 1), (0, 0), (0, 1), (1, 0)],
                [(0, 1), (1, 0), (1, 1), (0, 0)],
            )
        ]
        calls = _counting(monkeypatch, batchsim, "_Shared")
        results = [simulate(circuit, placement) for placement in placements]
        assert len(calls) == 1
        assert dicts(results) == [
            simulate_reference(circuit, placement).to_dict()
            for placement in placements
        ]
        simulate_batch([(circuit, placement, None) for placement in placements])
        assert len(calls) == 1

        circuit.append(cnot(0, 2))
        grown = simulate(circuit, placements[0])
        assert len(calls) == 2
        assert grown.to_dict() == simulate_reference(circuit, placements[0]).to_dict()
        simulate(circuit.gates, placements[0])
        simulate(circuit.gates, placements[0])
        assert len(calls) == 4

    def test_gate_durations_built_once_per_table(self, monkeypatch):
        """A second ``simulate`` of a prepared circuit with the same
        durations reads no gate duration and gives the same result; a
        different durations table gets its own array."""
        from repro.circuits.gates import DEFAULT_DURATIONS, Gate

        circuit = Circuit("durations-once")
        circuit.add_register("q", 4)
        circuit.extend([cnot(0, 1), cnot(2, 3), cnot(0, 3), cnot(1, 2)])
        placement = Placement(
            width=2, height=2,
            positions={0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)},
        )
        slower = SimulatorConfig(durations={**DEFAULT_DURATIONS, GateKind.CNOT: 7})
        expected = simulate_reference(circuit, placement, slower).to_dict()
        calls = _counting(monkeypatch, Gate, "duration")
        first = simulate(circuit, placement)
        assert len(calls) == len(circuit.gates)
        again = simulate(circuit, placement)
        assert len(calls) == len(circuit.gates)
        assert again.to_dict() == first.to_dict()
        other = simulate(circuit, placement, slower)
        assert len(calls) == 2 * len(circuit.gates)
        assert other.to_dict() == expected
        assert other.latency > first.latency
        shared = batchsim._prepare(circuit)
        default_array = shared.gate_durations(SimulatorConfig().durations)
        assert default_array is not shared.gate_durations(slower.durations)
        assert len(calls) == 2 * len(circuit.gates)

    def test_threads_share_one_preparation(self, single_level_k8):
        """Points of one ``Circuit`` simulated from many threads at once,
        hop points included, match the reference: points only read it."""
        circuit = single_level_k8.circuit
        pair = next(
            index for index, gate in enumerate(circuit.gates)
            if gate.is_braided and gate.kind is not GateKind.CXX
        )
        configs = [
            SimulatorConfig(max_candidates=1),
            SimulatorConfig(max_candidates=8),
            SimulatorConfig(hops={pair: (0, 0)}, max_candidates=2),
        ]
        points = [
            (random_circuit_placement(circuit, seed=seed), config)
            for seed in range(4)
            for config in configs
        ]
        expected = [simulate_reference(circuit, p, c).to_dict() for p, c in points]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(simulate, circuit, placement, config)
                    for _ in range(4)
                    for placement, config in points
                ]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert dicts(results) == expected * 4

    @pytest.mark.parametrize("layout", ["linear", "linear-reuse", "random"])
    @pytest.mark.parametrize("capacity", [16, 36, 64])
    def test_sweep_layouts_run_in_the_kernel(self, monkeypatch, capacity, layout):
        """The paper's two-level sweep shapes never leave the kernel.

        Linear layouts of capacities 16-64 have lattices 101-169 cells
        wide (two or three words per row); every point must run in the
        kernel, with no ``simulate_reference`` call, and match it.
        """
        factory = build_two_level_factory(
            capacity,
            reuse_policy=(
                ReusePolicy.REUSE if layout == "linear-reuse"
                else ReusePolicy.NO_REUSE
            ),
            barriers_between_rounds=True,
        )
        if layout == "random":
            placement = random_circuit_placement(factory.circuit, seed=capacity)
        else:
            placement = linear_factory_placement(factory)
        if layout == "linear" and capacity == 64:
            assert 2 * placement.width + 1 > 128  # three words per row
        points = [
            (factory.circuit, placement, SimulatorConfig(max_candidates=mc))
            for mc in (1, 2, 4, 8)
        ]
        expected = [simulate_reference(*points[i]).to_dict() for i in (0, 3)]
        calls = _counting(monkeypatch, batchsim, "simulate_reference")
        results = simulate_batch(points)
        assert calls == []
        assert dicts([results[0], results[3]]) == expected


    def test_a_leg_without_a_plan_never_reaches_the_kernel(self):
        """``check_point`` rules out two qubits on one tile; past it,
        building the plans raises rather than hand the kernel a star leg
        on its control's tile, which has no candidate rows."""
        gates = (cnot(0, 1), cxx(0, [1, 2]), cnot(1, 2))
        placement = Placement(
            width=3, height=1, positions={0: (0, 0), 1: (0, 1), 2: (0, 2)}
        )
        placement.positions[2] = (0, 0)
        with pytest.raises(RuntimeError, match="no candidate plan"):
            batchsim._PlacementPlans(
                kernel_module.load(), batchsim._prepare(gates), placement
            )


def _spy_dispatch(monkeypatch):
    """Call logs of ``simulate`` and of both ``simulate_reference`` callers."""
    return {
        "simulate": _counting(monkeypatch, simulator_module, "simulate"),
        "reference": _counting(monkeypatch, simulator_module, "simulate_reference"),
        "batch_reference": _counting(monkeypatch, batchsim, "simulate_reference"),
    }


@pytest.mark.skipif(not kernel_available(), reason="needs the C kernel")
class TestSingleEvaluationDispatch:
    """``simulate`` runs a point in the kernel when it can plan it."""

    def test_stitched_evaluation_runs_in_the_kernel(self, monkeypatch):
        from repro.api import EvaluationRequest, Pipeline

        request = EvaluationRequest("hierarchical_stitching", 4, levels=2)
        calls = _spy_dispatch(monkeypatch)
        result = Pipeline().evaluate(request)
        assert len(calls["simulate"]) == 1
        assert calls["simulate"][0][2].hops  # a hop braid point
        assert calls["reference"] == calls["batch_reference"] == []
        with kernel_disabled():
            assert Pipeline().evaluate(request) == result
        assert len(calls["reference"]) == 1

    def test_a_detour_runs_on_the_reference(self, single_level_k2, monkeypatch):
        """A detour makes exactly one reference call, with its result."""
        circuit = single_level_k2.circuit
        placement = linear_factory_placement(single_level_k2)
        config = SimulatorConfig(allow_detour=True)
        expected = simulate_reference(circuit, placement, config)
        calls = _spy_dispatch(monkeypatch)
        result = simulate(circuit, placement, config)
        assert len(calls["reference"]) == 1
        assert result.to_dict() == expected.to_dict()

    @pytest.mark.parametrize("seed", range(6))
    def test_only_detours_reach_the_reference(self, monkeypatch, seed):
        """Across the fuzz's point styles (plain, hops on free, occupied
        and own tiles, detours), ``simulate`` and ``simulate_batch`` call
        ``simulate_reference`` for exactly the detour points."""
        from test_simulator_fuzz import _random_config, wide_placement
        from test_simulator_parity import random_gates

        rng = random.Random(seed)
        points = []
        for _ in range(3):
            num_qubits = rng.randint(4, 9)
            gates = tuple(random_gates(rng, num_qubits))
            placement = wide_placement(rng, num_qubits, 1 + seed % 2, 1)
            for _ in range(6):
                points.append((gates, placement, _random_config(rng, gates, placement)))
        detours = [point for point in points if point[2].allow_detour]
        assert any(point[2].hops for point in points)
        calls = _spy_dispatch(monkeypatch)
        for point in points:
            simulate(*point)
        assert [args[2] for args in calls["reference"]] == [
            config for _, _, config in detours
        ]
        assert calls["batch_reference"] == []
        simulate_batch(points)
        assert [args[2] for args in calls["batch_reference"]] == [
            config for _, _, config in detours
        ]

    @pytest.mark.parametrize("end", [0, 1])
    def test_hop_on_its_own_tile_runs_as_the_plain_pair(
        self, single_level_k4, monkeypatch, end
    ):
        """The router routes a hop on a braid's own source or target tile
        as that cell plus the direct route, so the kernel runs the plain
        pair; the result is the reference's and the hop-free config's."""
        circuit = single_level_k4.circuit
        placement = random_circuit_placement(circuit, seed=1)
        hops = {
            index: placement.positions[gate.qubits[end]]
            for index, gate in enumerate(circuit.gates)
            if gate.is_braided and gate.kind.value != "cxx"
        }
        config = SimulatorConfig(hops=hops)
        expected = simulate_reference(circuit, placement, config)
        assert expected.stall_events  # the hop path meets traffic
        calls = _spy_dispatch(monkeypatch)
        result = simulate(circuit, placement, config)
        assert calls["reference"] == []
        assert result.to_dict() == expected.to_dict()
        assert result.to_dict() == simulate(circuit, placement).to_dict()


#: Hand-built hop braids (found by search) whose first stall fails one
#: leg: gates 0 and 1 are in flight when gate 2, hopping through a free
#: tile, tries leg 1 (source -> hop), then leg 2 (hop -> target), then the
#: direct route.  Dropping the failing leg's watch cells (the first two
#: cases) or keeping only them (the third) changes the wakeups.
HOP_WATCH_CASES = {
    "leg 1 blocked": (
        2, 4, {0: (0, 0), 1: (1, 3), 2: (1, 1), 3: (0, 2), 4: (1, 0), 5: (1, 2)},
        (0, 3),
    ),
    "leg 2 blocked": (
        4, 3, {0: (1, 1), 1: (0, 0), 2: (3, 2), 3: (0, 2), 4: (2, 1), 5: (2, 2)},
        (1, 0),
    ),
    "leg 2 blocked, direct watched": (
        3, 3, {0: (1, 1), 1: (2, 1), 2: (0, 1), 3: (1, 2), 4: (1, 0), 5: (2, 2)},
        (0, 0),
    ),
}


@pytest.mark.skipif(not kernel_available(), reason="needs the C kernel")
class TestHopWatchRule:
    """A stalled hop braid watches its failing leg plus its direct route."""

    @pytest.mark.parametrize("case", sorted(HOP_WATCH_CASES))
    def test_hop_gate_watch_cells(self, monkeypatch, case):
        from repro.circuits.gates import inject_t
        from repro.routing.mesh import tile_to_lattice

        height, width, positions, hop = HOP_WATCH_CASES[case]
        placement = Placement(width=width, height=height, positions=positions)
        gates = (cnot(0, 1), inject_t(2, 3), cnot(4, 5))
        config = SimulatorConfig(max_candidates=1, hops={2: hop})

        # The first stall fails the named leg.
        router = BraidRouter(
            Mesh.from_placement(positions, width=width, height=height),
            max_candidates=1,
        )
        locked = set(router.route_pair(0, 1, set()).cells)
        locked |= router.route_pair(2, 3, locked).cells
        source, target = (router.mesh.qubit_cell(q) for q in (4, 5))
        lattice_hop = tile_to_lattice(hop)
        leg1 = router._route_cells(source, lattice_hop, locked)
        leg2 = router._route_cells(lattice_hop, target, locked)
        assert (leg1 is None) == case.startswith("leg 1")
        assert leg2 is None or leg1 is None
        assert router._route_cells(source, target, locked) is None

        reference = simulate_reference(gates, placement, config)
        calls = _spy_dispatch(monkeypatch)
        result = simulate(gates, placement, config)
        assert calls["reference"] == []  # ran in the kernel
        assert (reference.stall_events, reference.distinct_stalls,
                reference.wakeups) == (2, 1, 2)
        assert result.to_dict() == reference.to_dict()


def _sparse_placement(rng, row_words, col_words):
    """A few qubits on a grid whose lattice spans the given word counts.

    ``words`` lattice words per axis means 2 * tiles + 1 cells in
    (64 * (words - 1), 64 * words].  Corner and edge tiles put routes
    against the lattice frame, and each random tile gets a second one in
    its row.
    """
    tiles = {1: (3, 31), 2: (32, 63), 3: (64, 95)}
    height = rng.randint(*tiles[col_words])
    width = rng.randint(*tiles[row_words])
    cells = {
        (0, 0), (0, 1), (1, 0), (1, 1),
        (0, width - 1), (height - 1, 0),
        (height - 1, width - 1), (height - 1, width - 2),
    }
    while len(cells) < 12:
        row, col = rng.randrange(height), rng.randrange(width)
        cells.update({(row, col), (row, rng.randrange(width))})
    return Placement(
        width=width,
        height=height,
        positions={q: cell for q, cell in enumerate(sorted(cells))},
    )


def _row_cells(row):
    """A compiled candidate row expanded to its set of lattice cells."""
    sr, sc, tr, tc, hrow, ha, hb, vcol, va, vb, count = (int(v) for v in row)
    cells = {(sr, sc), (tr, tc)}
    cells.update((hrow, c) for c in range(ha, hb + 1))
    cells.update((r, vcol) for r in range(va, vb + 1))
    assert len(cells) == count
    return frozenset(cells)


@pytest.mark.skipif(not kernel_available(), reason="needs the C kernel")
class TestCompiledPlanBuilder:
    """The kernel's candidate table vs ``BraidRouter._pair_plan``."""

    @staticmethod
    def _mesh(placement):
        return Mesh.from_placement(
            placement.positions, width=placement.width, height=placement.height
        )

    @staticmethod
    def _pairs(mesh, rng):
        """Ordered pairs over the tiles plus channel and far-border cells.

        Two tile cells never yield duplicate candidates; endpoints on
        channels or on the last lattice row/column (where the router's
        channel clamp binds) do, so both dedup and clamping are covered.
        """
        max_row, max_col = mesh.lattice_height - 1, mesh.lattice_width - 1
        cells = set(mesh.qubit_cells.values())
        cells.update({(max_row, max_col), (max_row - 1, max_col), (1, max_col),
                      (max_row, 1), (2, 2), (2, 3)})
        while len(cells) < len(mesh.qubit_cells) + 10:
            cells.add((rng.randint(1, max_row), rng.randint(1, max_col)))
        cells = sorted(cells)
        return [(a, b) for a in cells for b in cells if a != b]

    @staticmethod
    def _rows(pairs, mesh):
        """The kernel's plan of each pair, as row arrays (None: no plan)."""
        coords = np.asarray(
            [(*source, *target) for source, target in pairs], dtype=np.int64
        ).reshape(-1, 4)
        table, kept = batchsim._candidate_rows(
            kernel_module.load(), coords, mesh.lattice_height, mesh.lattice_width
        )
        slot = kernel_module.MAX_CANDIDATES
        return [
            table[i * slot: i * slot + count] if count >= 0 else None
            for i, count in enumerate(kept.tolist())
        ]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_single_pair_builder_parity(self, seed):
        """Same candidates, order and dedup as the untruncated router plan,
        on meshes of 1, 2 and 3 words per lattice row and column."""
        rng = random.Random(seed)
        deduplicated = 0
        for row_words in (1, 2, 3):
            for col_words in (1, 2, 3):
                mesh = self._mesh(_sparse_placement(rng, row_words, col_words))
                assert -(-mesh.lattice_width // 64) == row_words
                assert -(-mesh.lattice_height // 64) == col_words
                router = BraidRouter(mesh, max_candidates=8)
                pairs = self._pairs(mesh, rng)
                for pair, rows in zip(pairs, self._rows(pairs, mesh)):
                    compiled = [_row_cells(row) for row in rows]
                    plan = [cells for _, cells in router._pair_plan(*pair)[0]]
                    assert compiled == plan, pair
                    deduplicated += len(rows) < 8
        assert deduplicated  # the dedup path actually ran

    def test_bulk_prefetch_matches_single_calls(self):
        """One ``build_plans`` call over every pair == one call per pair."""
        rng = random.Random(2)
        mesh = self._mesh(_sparse_placement(rng, 2, 3))
        pairs = self._pairs(mesh, rng)
        bulk = self._rows(pairs, mesh)
        for pair, rows in zip(pairs, bulk):
            assert np.array_equal(rows, self._rows([pair], mesh)[0])

    def test_prefetch_skips_border_and_degenerate_pairs(self, single_level_k4):
        """Padding-frame and coincident pairs get no plan.

        Qubit tiles live at odd/odd lattice cells and ``check_point``
        rejects two qubits on one tile, so the simulator never asks for
        either shape; the kernel reports them as plan-less (count -1).
        """
        placement = random_circuit_placement(single_level_k4.circuit, seed=0)
        mesh = self._mesh(placement)
        pairs = [((0, 1), (1, 1)), ((1, 1), (1, 1)), ((1, 1), (1, 3))]
        assert [rows is None for rows in self._rows(pairs, mesh)] == [
            True, True, False,
        ]
