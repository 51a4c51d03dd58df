"""Differential fuzz harness: the compiled kernel vs the reference oracle.

Each trial draws a random scenario — one or two circuits, one or two
placements each, a handful of simulator configs, the whole point set
shuffled and chunked into random batch sizes — and checks that the
compiled kernel, through :func:`repro.routing.simulate_batch` and the
single-point :func:`repro.routing.simulate`, produces ``to_dict()`` output
byte-identical to :func:`repro.routing.simulate_reference`
(stall_events, distinct_stalls and wakeups included; the oracle asserts
its own wakeup invariant on every point).  Configs cover hop (Valiant)
braids on free tiles, on occupied tiles and on a braid's own tiles, which
run in the kernel, and BFS detours, which it hands back to the reference.
Each trial's first placement spans 1–3 lattice words
per row and per column (trial ``seed`` takes combination ``seed % 9``),
so any nine consecutive trials cross every multi-word board shape of the
kernel.  Without the kernel only the oracle runs.  A small corpus runs in
tier 1; the nightly CI job widens it with ``--fuzz-iterations``.

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
from conftest import fuzz_corpus
from test_simulator_parity import random_gates, random_placement

#: Offset added to the trial index so seed 0 is not a magic value.
SEED_BASE = 20260808

#: Tiles per axis that put 1, 2 or 3 words in a lattice row or column
#: (a lattice has 2 * tiles + 1 cells per axis, 64 cells per word).
WORD_TILES = {2: (32, 40), 3: (64, 70)}


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


def _random_hops(rng: random.Random, gates, placement: Placement):
    """Hops for a random share of the pair braids, of one random style.

    ``free`` picks unoccupied tiles, ``mixed`` any in-mesh tile (most
    hierarchical-stitching hops sit on another qubit's tile) and
    ``endpoint`` one of the braid's own tiles: all three run in the
    kernel.
    """
    occupied = set(placement.positions.values())
    free = [
        (r, c)
        for r in range(placement.height)
        for c in range(placement.width)
        if (r, c) not in occupied
    ]
    style = rng.choice(["free", "free", "endpoint", "mixed"])
    share = rng.choice([0.3, 0.8])
    hops = {}
    for index, gate in enumerate(gates):
        if gate.kind.value not in ("cnot", "inject_t") or rng.random() >= share:
            continue
        if style == "free" and free:
            hops[index] = rng.choice(free)
        elif style == "endpoint":
            hops[index] = placement.positions[rng.choice(gate.qubits)]
        else:
            hops[index] = (
                rng.randrange(placement.height),
                rng.randrange(placement.width),
            )
    return hops


def _random_config(rng: random.Random, gates, placement: Placement):
    """Plain configs, plus ~2 in 5 with hops and ~1 in 10 with detours."""
    hops = {}
    allow_detour = False
    draw = rng.random()
    if draw < 0.1:
        allow_detour = True
    elif draw < 0.5:
        hops = _random_hops(rng, gates, placement)
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
                config = _random_config(rng, gates, placement)
                points.append((gates, placement, config))
    rng.shuffle(points)

    expected = [simulate_reference(*point).to_dict() for point in points]
    if not kernel_available():
        return
    assert [simulate(*point).to_dict() for point in points] == expected, (
        "simulate diverged from the reference"
    )
    # Whole batch in one call...
    assert [r.to_dict() for r in simulate_batch(points)] == expected, (
        "simulate_batch diverged on the full batch"
    )
    # ...and chunked into sub-batches of the trial's random size.
    batch_size = rng.choice([1, 3, 8, len(points)])
    chunked = []
    for start in range(0, len(points), batch_size):
        chunked.extend(simulate_batch(points[start:start + batch_size]))
    assert [r.to_dict() for r in chunked] == expected, (
        f"simulate_batch diverged at batch_size={batch_size}"
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


@pytest.mark.skipif(not kernel_available(), reason="needs the C kernel")
def test_harness_detects_divergence(monkeypatch):
    """The harness itself must fail loudly if the kernel ever lies."""
    from repro.routing.batchsim import simulate_batch as real

    def corrupted(requests):
        results = real(requests)
        if results and results[0].gate_start:
            results[0].gate_start[0] += 1
        return results

    monkeypatch.setattr("test_simulator_fuzz.simulate_batch", corrupted)
    with pytest.raises(AssertionError, match="diverged"):
        run_trial(0)
