"""Benchmark guard: the compiled simulator kernel on the Fig. 7 factories.

Every figure of the paper is evaluated through :func:`repro.routing.simulate`,
so this module asserts its ground truth at paper scale: on every factory
configuration of the Fig. 7 sweep (single- and two-level, linear and
congested random layouts, stall and detour policies) ``simulate`` — the
compiled kernel, or the reference for the detour points the kernel does not
plan — must give ``SimulationResult.to_dict()`` output byte-identical to the
set-based :func:`~repro.routing.simulate_reference` oracle, whose own
internal assertion also verifies the wakeup parking invariant on every run.

It also times the kernel against the reference on the stall-heavy
congestion case (the two-level K=16 factory under a random placement),
asserting a conservative speedup floor so a performance regression of the
kernel path fails loudly.
"""

from __future__ import annotations

import time

import pytest

from conftest import single_level_capacities, two_level_capacities
from repro.distillation import FactorySpec, ReusePolicy, build_factory
from repro.mapping import linear_factory_placement, random_circuit_placement
from repro.routing import (
    SimulatorConfig,
    kernel_available,
    simulate,
    simulate_batch,
    simulate_reference,
)


def _fig7_configs():
    configs = [(capacity, 1) for capacity in single_level_capacities()]
    configs += [(capacity, 2) for capacity in two_level_capacities()]
    return configs


def _factory(capacity, levels):
    return build_factory(
        FactorySpec.from_capacity(capacity, levels),
        reuse_policy=ReusePolicy.NO_REUSE,
        barriers_between_rounds=True,
    )


@pytest.mark.parametrize("capacity,levels", _fig7_configs())
def test_simulate_equals_reference_on_fig7_factories(capacity, levels):
    """Byte-identical results on every fig7 factory graph and layout."""
    factory = _factory(capacity, levels)
    layouts = [
        linear_factory_placement(factory),
        random_circuit_placement(factory.circuit, seed=0),
    ]
    configs = [
        SimulatorConfig(max_candidates=2),
        SimulatorConfig(max_candidates=8),
        SimulatorConfig(allow_detour=True),
    ]
    for layout in layouts:
        for config in configs:
            result = simulate(factory.circuit, layout, config)
            reference = simulate_reference(factory.circuit, layout, config)
            assert result.to_dict() == reference.to_dict()


@pytest.mark.parametrize("capacity,levels", _fig7_configs())
def test_batched_engine_equals_reference_on_fig7_factories(capacity, levels):
    """The batched core at paper scale: byte-identical at every chunking.

    Each fig7 factory's sweep points (linear and congested random layouts
    under several candidate budgets) run through :func:`simulate_batch` at
    batch sizes 1, 3, 8 and the full point set, and every chunking must
    reproduce per-point :func:`simulate_reference` output exactly.
    """
    factory = _factory(capacity, levels)
    layouts = [
        linear_factory_placement(factory),
        random_circuit_placement(factory.circuit, seed=0),
    ]
    configs = [
        SimulatorConfig(max_candidates=1),
        SimulatorConfig(max_candidates=2),
        SimulatorConfig(max_candidates=8),
    ]
    points = [
        (factory.circuit, layout, config)
        for layout in layouts
        for config in configs
    ]
    expected = [simulate_reference(*point).to_dict() for point in points]
    for batch_size in (1, 3, 8, len(points)):
        results = []
        for start in range(0, len(points), batch_size):
            results.extend(simulate_batch(points[start:start + batch_size]))
        assert [result.to_dict() for result in results] == expected, (
            f"batched run diverged at batch_size={batch_size}"
        )


@pytest.mark.skipif(not kernel_available(), reason="times the C kernel")
def test_bench_stall_heavy_speedup(benchmark):
    """Time the kernel against the reference on heavy congestion.

    The workload is the headline congestion case: the two-level
    K=16 factory under a random placement (the congested Fig. 6 geometry),
    ``max_candidates=8``.  The kernel runs it 50-90x faster than the
    reference on a 2-vCPU VM; the assertion floor (20x) leaves room for
    shared CI runners with noisy clocks, while a kernel several times
    slower than today, or the point falling back to the reference, fails.
    """
    factory = _factory(16, 2)
    placement = random_circuit_placement(factory.circuit, seed=0)
    config = SimulatorConfig(max_candidates=8)

    reference_seconds = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        reference_result = simulate_reference(factory.circuit, placement, config)
        reference_seconds = min(reference_seconds, time.perf_counter() - started)

    result = benchmark(simulate, factory.circuit, placement, config)
    assert result.to_dict() == reference_result.to_dict()

    kernel_seconds = benchmark.stats.stats.min
    speedup = reference_seconds / kernel_seconds
    print(
        f"\n[bench] stall-heavy simulation, L2 K=16 random placement "
        f"({len(factory.circuit)} gates, {result.stall_events} legacy retries, "
        f"{result.wakeups} wakeups): kernel {kernel_seconds * 1000:.1f}ms "
        f"vs reference {reference_seconds * 1000:.1f}ms ({speedup:.1f}x)"
    )
    assert speedup >= 20
