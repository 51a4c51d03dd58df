"""Differential fuzz harness: batched engines vs the reference oracles.

Each trial draws a random scenario — one or two circuits, one or two
placements each, a handful of simulator configs, the whole point set
shuffled and chunked into random batch sizes — and checks that **every**
available batched engine (``scalar``, the per-point loop
``simulate_batch`` runs without the kernel, and ``compiled`` when the C
kernel builds) produces ``to_dict()`` output byte-identical to per-point
:func:`repro.routing.simulate`, which is itself cross-checked against
:func:`repro.routing.simulate_reference` (stall_events, distinct_stalls
and wakeups included).  Each trial's first placement spans 1–3 lattice
words per row and per column (trial ``seed`` takes combination
``seed % 9``), so any nine consecutive trials cross every multi-word
board shape of the kernel.  A small corpus runs in tier 1; the nightly
CI job widens it with ``--fuzz-iterations``.

Failures are collected, not raised one at a time: the assertion message
lists every failing seed with a one-line repro command
(``--fuzz-seeds=<seed>`` replays exactly that trial).
"""

from __future__ import annotations

import random

import pytest

from repro.mapping import Placement
from repro.routing import (
    SimulatorConfig,
    kernel_available,
    simulate,
    simulate_batch,
    simulate_reference,
)
from conftest import fuzz_corpus, kernel_disabled
from test_simulator_parity import random_gates, random_placement

#: Offset added to the trial index so seed 0 is not a magic value.
SEED_BASE = 20260808

#: Tiles per axis that put 1, 2 or 3 words in a lattice row or column
#: (a lattice has 2 * tiles + 1 cells per axis, 64 cells per word).
WORD_TILES = {2: (32, 40), 3: (64, 70)}


def _engines():
    engines = ["scalar"]
    if kernel_available():
        engines.append("compiled")
    return engines


def _batch(points, engine):
    if engine == "compiled":
        return simulate_batch(points, engine="compiled")
    with kernel_disabled():
        return simulate_batch(points)


def wide_placement(rng: random.Random, num_qubits: int, row_words: int,
                   col_words: int) -> Placement:
    """A sparse placement whose lattice has the given words per row/column.

    One word per axis keeps :func:`random_placement`'s dense 2–5-tile
    grids; wider axes scatter the qubits over 32–40 or 64–70 tiles, so
    routes, watch cells and wakeups cross word boundaries.
    """
    if row_words == col_words == 1:
        return random_placement(rng, num_qubits)
    height = rng.randint(*WORD_TILES.get(col_words, (2, 5)))
    width = rng.randint(*WORD_TILES.get(row_words, (2, 5)))
    while height * width < num_qubits:
        width += 1
    cells = rng.sample(range(height * width), num_qubits)
    return Placement(
        width=width,
        height=height,
        positions={q: divmod(cell, width) for q, cell in enumerate(cells)},
    )


def _random_batchable_config(rng: random.Random, gates, placement: Placement):
    """Mostly batchable configs; ~1 in 5 exercise the scalar fallback."""
    hops = {}
    allow_detour = False
    if rng.random() < 0.2:
        if rng.random() < 0.5:
            allow_detour = True
        else:
            hops = {
                index: (
                    rng.randrange(placement.height),
                    rng.randrange(placement.width),
                )
                for index, gate in enumerate(gates)
                if gate.kind.value in ("cnot", "inject_t")
                and rng.random() < 0.3
            }
    return SimulatorConfig(
        max_candidates=rng.choice([1, 2, 4, 8]),
        allow_detour=allow_detour,
        detour_slack=rng.choice([1.5, 2.0, 4.0]),
        hops=hops,
    )


def run_trial(seed: int) -> None:
    """One differential trial; raises AssertionError on any divergence."""
    rng = random.Random(SEED_BASE + seed)
    words = (1 + seed % 3, 1 + seed // 3 % 3)  # (per row, per column)
    points = []
    for _ in range(rng.randint(1, 2)):  # circuits per trial
        num_qubits = rng.randint(4, 9)
        gates = tuple(random_gates(rng, num_qubits))
        for _ in range(rng.randint(1, 2)):  # placements per circuit
            if not points:
                placement = wide_placement(rng, num_qubits, *words)
            elif rng.random() < 0.5:
                placement = wide_placement(
                    rng, num_qubits, rng.randint(1, 3), rng.randint(1, 3)
                )
            else:
                placement = random_placement(rng, num_qubits)
            for _ in range(rng.randint(1, 3)):  # configs per placement
                config = _random_batchable_config(rng, gates, placement)
                points.append((gates, placement, config))
    rng.shuffle(points)

    expected = []
    for gates, placement, config in points:
        masked = simulate(gates, placement, config)
        reference = simulate_reference(gates, placement, config)
        assert masked.to_dict() == reference.to_dict(), (
            "masked engine diverged from the set-based reference"
        )
        expected.append(masked.to_dict())

    batch_size = rng.choice([1, 3, 8, len(points)])
    for engine in _engines():
        # Whole batch in one call...
        out = _batch(points, engine)
        assert [r.to_dict() for r in out] == expected, (
            f"engine={engine!r} diverged on the full batch"
        )
        # ...and chunked into sub-batches of the trial's random size.
        chunked = []
        for start in range(0, len(points), batch_size):
            chunked.extend(
                _batch(points[start:start + batch_size], engine)
            )
        assert [r.to_dict() for r in chunked] == expected, (
            f"engine={engine!r} diverged at batch_size={batch_size}"
        )


def test_differential_fuzz(request):
    """Sweep the seeded corpus; report every failing seed with a repro."""
    fuzz_corpus(request, run_trial)


def test_first_placements_cover_every_board_shape():
    """Trials 0-8 put 1-3 lattice words per row and per column in every
    combination, so the tier-1 corpus crosses each multi-word board."""
    shapes = set()
    for seed in range(9):
        row_words, col_words = 1 + seed % 3, 1 + seed // 3 % 3
        placement = wide_placement(random.Random(seed), 9, row_words, col_words)
        shapes.add((
            -(-(2 * placement.width + 1) // 64),
            -(-(2 * placement.height + 1) // 64),
        ))
    assert shapes == {(r, c) for r in (1, 2, 3) for c in (1, 2, 3)}


def test_harness_detects_divergence(monkeypatch):
    """The harness itself must fail loudly if an engine ever lies."""
    from repro.routing.batchsim import simulate_batch as real

    def corrupted(requests, engine="auto"):
        results = real(requests, engine=engine)
        if results and results[0].gate_start:
            results[0].gate_start[0] += 1
        return results

    monkeypatch.setattr("test_simulator_fuzz.simulate_batch", corrupted)
    with pytest.raises(AssertionError, match="diverged"):
        run_trial(0)
