"""Paper-scale checks of the evaluation (Section VIII), run nightly.

Tier-1 checks the paper's claims at smoke scale and deselects this module
(``addopts = "-m 'not nightly'"`` in pyproject.toml); the scheduled CI job
runs it with ``python -m pytest -m nightly``.  It takes a few minutes and
holds three kinds of check:

* every shape claim of Table I and Figs. 6, 7, 9 and 10 again at each
  experiment's ``PAPER_*_CAPACITIES`` (Fig. 6 at 60 mappings), one
  module-scoped run per experiment.  Two paper claims that do not hold
  yet are marked ``xfail(strict=True)``, so the change that makes one hold
  has to drop its mark;
* the fast engines against their oracles on the Fig. 7 factories:
  ``simulate`` and ``simulate_batch`` against ``simulate_reference``, and
  the bucketed crossing count against brute force;
* speed guards: each fast path at least a fixed multiple faster than its
  oracle or its serial/cold baseline, with margins wide enough for shared
  CI runners.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.api import ResultStore, SweepExecutor, SweepPlan
from repro.distillation import FactorySpec, ReusePolicy, build_factory
from repro.experiments import (
    fig6_correlation,
    fig7_scaling,
    fig9_permutation,
    fig9_reuse,
    fig10_resources,
    table1_volumes,
)
from repro.graphs import (
    average_edge_spacing,
    average_edge_spacing_reference,
    count_edge_crossings,
    count_edge_crossings_reference,
    interaction_graph,
)
from repro.kernels import metrics as metrics_kernel
from repro.mapping import (
    StitchingConfig,
    hierarchical_stitching,
    linear_factory_placement,
    random_circuit_placement,
)
from repro.mapping.stitching import (
    optimize_permutation_hops,
    optimize_permutation_hops_reference,
)
from repro.routing import (
    SimulatorConfig,
    kernel_available,
    simulate,
    simulate_batch,
    simulate_reference,
)

pytestmark = pytest.mark.nightly

#: Fig. 7a's axis stops at K=20; the single-level checks also take K=24,
#: the largest single-level factory of Fig. 10 and Table I.
SINGLE_LEVEL_CAPACITIES = fig10_resources.PAPER_SINGLE_LEVEL_CAPACITIES

#: The Fig. 7 factories the engines are compared with their oracles on,
#: and the sweeps the executor and store guards time.  Two-level stops at
#: K=16: beyond it the oracles take minutes.
FIG7_SINGLE_LEVEL = (2, 4, 8, 16, 24)
FIG7_TWO_LEVEL = (4, 16)
FIG7_FACTORIES = [(capacity, 1) for capacity in FIG7_SINGLE_LEVEL] + [
    (capacity, 2) for capacity in FIG7_TWO_LEVEL
]
FIG7_METHODS = ("force_directed", "graph_partition")


# ----------------------------------------------------------------------
# One run of each experiment at the paper's capacities
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig6():
    return fig6_correlation.run(capacity=8, num_mappings=60, seed=0)


@pytest.fixture(scope="module")
def fig7a():
    return fig7_scaling.run_single_level(capacities=SINGLE_LEVEL_CAPACITIES)


@pytest.fixture(scope="module")
def fig7b():
    return fig7_scaling.run_two_level(
        capacities=fig7_scaling.PAPER_TWO_LEVEL_CAPACITIES
    )


@pytest.fixture(scope="module")
def fig9ab():
    return fig9_reuse.run(capacities=fig9_reuse.PAPER_CAPACITIES)


@pytest.fixture(scope="module")
def fig9cd():
    return fig9_permutation.run(capacities=fig9_permutation.PAPER_CAPACITIES, seed=0)


@pytest.fixture(scope="module")
def fig10_single():
    return fig10_resources.run_single_level(
        capacities=fig10_resources.PAPER_SINGLE_LEVEL_CAPACITIES
    )


@pytest.fixture(scope="module")
def fig10_two():
    return fig10_resources.run_two_level(
        capacities=fig10_resources.PAPER_TWO_LEVEL_CAPACITIES
    )


@pytest.fixture(scope="module")
def table1_level1():
    return table1_volumes.run(
        levels=1, capacities=table1_volumes.PAPER_LEVEL1_CAPACITIES
    )


@pytest.fixture(scope="module")
def table1_level2():
    return table1_volumes.run(
        levels=2, capacities=table1_volumes.PAPER_LEVEL2_CAPACITIES
    )


# ----------------------------------------------------------------------
# Shape claims
# ----------------------------------------------------------------------
def test_fig6_crossings_correlate_and_dominate(fig6):
    measured = fig6.measured()
    assert measured["edge_crossings_r"] > 0.0
    assert measured["edge_length_r"] > 0.0
    assert measured["edge_crossings_r"] >= measured["edge_length_r"]


def test_fig7a_single_level_within_2_5x_of_the_bound(fig7a):
    series = fig7a.series()
    for method in FIG7_METHODS:
        for capacity, latency in series[method].items():
            bound = series["lower_bound"][capacity]
            assert bound <= latency <= 2.5 * bound, (method, capacity)


def test_fig7b_two_level_gap_does_not_shrink(fig7b):
    series = fig7b.series()
    bound = series["lower_bound"]
    smallest, largest = min(bound), max(bound)
    for method in FIG7_METHODS:
        small_gap = series[method][smallest] / bound[smallest]
        large_gap = series[method][largest] / bound[largest]
        assert large_gap >= 1.0, method
        assert large_gap >= 0.8 * small_gap, method


def test_fig9ab_reuse_costs_linear_little_volume(fig9ab):
    by_method = fig9ab.by_method()
    for capacity, comparison in by_method["linear"].items():
        assert comparison.volume_reuse <= comparison.volume_no_reuse * 1.15, capacity
    for method, comparisons in by_method.items():
        for capacity, comparison in comparisons.items():
            assert -0.6 <= comparison.differential <= 0.6, (method, capacity)


def test_fig9cd_annealed_hops_do_not_hurt_and_random_is_not_best(fig9cd):
    table = fig9cd.by_mode()
    for capacity, baseline in table["none"].items():
        annealed = table["annealed_midpoint"][capacity]
        assert annealed <= baseline * 1.15, capacity
        assert table["random"][capacity] >= min(annealed, baseline) * 0.95, capacity


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP item 9: annealed-midpoint hops cut the K=16 permutation "
        "step 64/60 = 1.07x, not 1.15x"
    ),
)
def test_fig9d_annealed_hops_cut_permutation_latency_at_k16(fig9cd):
    table = fig9cd.by_mode()
    assert table["none"][16] >= 1.15 * table["annealed_midpoint"][16]


def test_fig10_single_level_linear_near_the_best(fig10_single):
    volumes = fig10_single.series("volume")
    areas = fig10_single.series("area")
    capacities = sorted(volumes["linear"])
    smallest, largest = capacities[0], capacities[-1]
    for method in volumes:
        assert volumes[method][largest] > volumes[method][smallest], method
        assert areas[method][largest] > areas[method][smallest], method
    for capacity in capacities:
        best = min(series[capacity] for series in volumes.values())
        assert volumes["linear"][capacity] <= 1.3 * best, capacity


def test_fig10_two_level_stitching_lowest_at_the_largest_capacity(fig10_two):
    volumes = fig10_two.series("volume")
    largest = max(volumes["linear"])
    stitching = volumes["hierarchical_stitching"][largest]
    for method, series in volumes.items():
        assert stitching <= series[largest], method
    assert fig10_two.volume_reduction(largest) > 1.2


def test_table1_level1_random_worst_and_every_row_above_critical(table1_level1):
    volumes = table1_level1.volumes
    rows = ("linear_no_reuse", "force_directed", "graph_partition")
    for capacity in table1_volumes.PAPER_LEVEL1_CAPACITIES:
        critical = volumes["critical"][capacity]
        for row in ("random",) + rows:
            assert volumes[row][capacity] >= 0.99 * critical, (row, capacity)
        worst_other = max(volumes[row][capacity] for row in rows)
        assert volumes["random"][capacity] >= 0.9 * worst_other, capacity


def test_table1_level2_stitching_lowest_at_k100(table1_level2):
    volumes = table1_level2.volumes
    largest = max(table1_volumes.PAPER_LEVEL2_CAPACITIES)
    stitching = volumes["hierarchical_stitching"][largest]
    assert stitching <= volumes["linear_no_reuse"][largest]
    assert stitching <= volumes["graph_partition"][largest]
    assert stitching >= 0.99 * volumes["critical"][largest]
    # The paper's headline reduction over Line(NR) is 5.64x; a different
    # cycle model keeps the shape, not the constant.
    assert volumes["linear_no_reuse"][largest] / stitching > 1.5


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP item 10: FD fills its start grid and is above Line NR "
        "at K=4/16/36"
    ),
)
def test_table1_level2_force_directed_below_line_nr(table1_level2):
    volumes = table1_level2.volumes
    below = [
        capacity
        for capacity in table1_volumes.PAPER_LEVEL2_CAPACITIES
        if volumes["force_directed"][capacity] < volumes["linear_no_reuse"][capacity]
    ]
    assert len(below) >= 4, below


# ----------------------------------------------------------------------
# Engines against their oracles on the Fig. 7 factories
# ----------------------------------------------------------------------
def _factory(capacity, levels):
    return build_factory(
        FactorySpec.from_capacity(capacity, levels),
        reuse_policy=ReusePolicy.NO_REUSE,
        barriers_between_rounds=True,
    )


def _layouts(factory, seeds=(0,)):
    """The linear layout and congested random ones."""
    return [linear_factory_placement(factory)] + [
        random_circuit_placement(factory.circuit, seed=seed) for seed in seeds
    ]


@pytest.mark.parametrize("capacity,levels", FIG7_FACTORIES)
def test_simulate_equals_reference(capacity, levels):
    """Byte-identical results under stall and detour policies."""
    factory = _factory(capacity, levels)
    configs = [
        SimulatorConfig(max_candidates=2),
        SimulatorConfig(max_candidates=8),
        SimulatorConfig(allow_detour=True),
    ]
    for layout in _layouts(factory):
        for config in configs:
            result = simulate(factory.circuit, layout, config)
            reference = simulate_reference(factory.circuit, layout, config)
            assert result.to_dict() == reference.to_dict()


@pytest.mark.parametrize("capacity,levels", FIG7_FACTORIES)
def test_simulate_batch_equals_reference_at_every_chunking(capacity, levels):
    factory = _factory(capacity, levels)
    points = [
        (factory.circuit, layout, SimulatorConfig(max_candidates=candidates))
        for layout in _layouts(factory)
        for candidates in (1, 2, 8)
    ]
    expected = [simulate_reference(*point).to_dict() for point in points]
    for batch_size in (1, 3, 8, len(points)):
        results = []
        for start in range(0, len(points), batch_size):
            results.extend(simulate_batch(points[start:start + batch_size]))
        assert [result.to_dict() for result in results] == expected, batch_size


@pytest.mark.parametrize("capacity,levels", FIG7_FACTORIES)
def test_bucketed_crossings_equal_brute_force(capacity, levels):
    factory = _factory(capacity, levels)
    graph = interaction_graph(factory.circuit)
    for layout in _layouts(factory, seeds=(0, 1)):
        positions = layout.as_float_positions()
        assert count_edge_crossings(graph, positions) == (
            count_edge_crossings_reference(graph, positions)
        )
        assert average_edge_spacing(graph, positions) == pytest.approx(
            average_edge_spacing_reference(graph, positions), rel=1e-9
        )


# ----------------------------------------------------------------------
# Speed guards
# ----------------------------------------------------------------------
def _best_of(rounds, function, *args):
    """``(fastest wall seconds, last result)`` over ``rounds`` calls."""
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        result = function(*args)
        best = min(best, time.perf_counter() - started)
    return best, result


@pytest.mark.skipif(not kernel_available(), reason="times the C kernel")
def test_simulator_kernel_at_least_20x_the_reference():
    """The stall-heavy congestion case: two-level K=16 under a random
    placement, ``max_candidates=8``.  The kernel runs it 50-90x faster on
    a 2-vCPU VM; the floor catches a kernel several times slower, or the
    point falling back to the reference."""
    factory = _factory(16, 2)
    point = (
        factory.circuit,
        random_circuit_placement(factory.circuit, seed=0),
        SimulatorConfig(max_candidates=8),
    )
    reference_seconds, reference = _best_of(3, simulate_reference, *point)
    kernel_seconds, result = _best_of(5, simulate, *point)
    assert result.to_dict() == reference.to_dict()
    speedup = reference_seconds / kernel_seconds
    assert speedup >= 20, f"kernel only {speedup:.1f}x the reference"


@pytest.mark.skipif(not metrics_kernel.available(), reason="times the C kernel")
def test_hop_kernel_at_least_50x_its_oracle_at_k36():
    """Fig. 9d's annealed-midpoint hops at K=36: equal hops, and the
    kernel annealer at least 50x faster than the scalar oracle."""
    stitched = hierarchical_stitching(
        FactorySpec.from_capacity(36, 2), config=StitchingConfig(hop_mode="none")
    )
    args = (stitched.factory, stitched.placement, StitchingConfig(seed=0))
    reference_seconds, reference = _best_of(
        1, optimize_permutation_hops_reference, *args
    )
    kernel_seconds = float("inf")
    for _ in range(3):
        seconds, hops = _best_of(1, optimize_permutation_hops, *args)
        assert hops == reference
        kernel_seconds = min(kernel_seconds, seconds)
    speedup = reference_seconds / kernel_seconds
    assert speedup >= 50, f"hop kernel only {speedup:.1f}x its oracle"


def _fig7_plan(seeds=(0,)) -> SweepPlan:
    """The Fig. 7 sweep (both levels) as one explicit plan."""
    single = SweepPlan.from_grid(
        methods=FIG7_METHODS, capacities=FIG7_SINGLE_LEVEL, levels=1, seeds=seeds
    )
    two = SweepPlan.from_grid(
        methods=FIG7_METHODS, capacities=FIG7_TWO_LEVEL, levels=2, seeds=seeds
    )
    return SweepPlan.from_requests(list(single) + list(two))


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4, reason="speedup measurement needs >= 4 CPUs"
)
def test_four_workers_at_least_2x_serial():
    """Replicated over four seeds so no one evaluation is the critical path."""
    plan = _fig7_plan(seeds=(0, 1, 2, 3))
    serial_seconds, serial = _best_of(1, SweepExecutor(workers=1).run, plan)
    parallel_seconds, parallel = _best_of(1, SweepExecutor(workers=4).run, plan)
    assert json.dumps(parallel.to_dict(), sort_keys=True) == json.dumps(
        serial.to_dict(), sort_keys=True
    )
    speedup = serial_seconds / parallel_seconds
    assert speedup >= 2.0, (
        f"4-worker sweep only {speedup:.2f}x faster "
        f"({serial_seconds:.1f}s serial vs {parallel_seconds:.1f}s parallel)"
    )


def test_resumed_sweep_at_least_5x_faster_than_cold(tmp_path):
    """The cold run simulates every point; the resumed one reads JSON."""
    plan = SweepPlan.from_grid(
        methods=FIG7_METHODS, capacities=FIG7_SINGLE_LEVEL, levels=1
    )
    store = ResultStore(tmp_path / "store")
    cold_seconds, _ = _best_of(1, SweepExecutor(workers=1, store=store).run, plan)
    started = time.perf_counter()
    result = SweepExecutor(workers=1, store=store).run(plan, resume=True)
    resumed_seconds = time.perf_counter() - started
    assert result.stats.store_hits == len(plan)
    assert resumed_seconds * 5 < cold_seconds, (
        f"resumed run ({resumed_seconds:.3f}s) should be at least 5x faster "
        f"than the cold run ({cold_seconds:.3f}s)"
    )
