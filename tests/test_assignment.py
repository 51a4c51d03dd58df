"""Exactness tests for the port-reassignment assignment solver.

Hierarchical stitching's port reassignment (Section VII-B) solves one
small assignment problem per producer module with
:func:`repro.mapping.assignment.linear_sum_assignment`, a pure-Python
shortest-augmenting-path solver.  Its oracle is
``scipy.optimize.linear_sum_assignment``: on every matrix the two must
return the same row and column indices, ties included.  scipy is in the
``test`` extra, so it is imported unconditionally here: a missing oracle
fails the run instead of skipping it.

Each fuzz trial draws a batch of random matrices up to 10x10 (square,
wide and tall) with small-int, half-int, Manhattan-like, uniform float,
constant or partly infinite costs.  The matrices the stitching mapper
builds at capacities 4, 16 and 36 are checked as fixed cases.  A small
corpus runs in tier 1; ``--fuzz-iterations`` widens it and
``--fuzz-seeds`` replays single trials.

The runtime does not need scipy at all: two subprocess checks evaluate a
level-2 stitched factory in a fresh interpreter, once watching
``sys.modules`` and once with scipy made unimportable.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment as scipy_assignment

from repro.api import EvaluationRequest, Pipeline
from repro.distillation import FactorySpec, ReusePolicy
from repro.mapping import stitching
from repro.mapping.assignment import linear_sum_assignment

from conftest import fuzz_corpus, run_fresh

#: Offset added to the trial index so seed 0 is not a magic value.
SEED_BASE = 20261018

#: Matrices drawn per fuzz trial.
MATRICES_PER_TRIAL = 100

COST_KINDS = ("int", "half", "manhattan", "float", "constant", "infinite")


def _random_matrix(rng: random.Random):
    """A random cost matrix (list of rows) of at most 10x10."""
    n_rows, n_cols = rng.randint(1, 10), rng.randint(1, 10)
    kind = rng.choice(COST_KINDS)

    def cost() -> float:
        if kind == "int":
            return float(rng.randint(0, 3))
        if kind == "half":
            return rng.randint(0, 8) / 2
        if kind == "manhattan":
            # |row - centroid row| + |col - centroid col|, as port
            # reassignment builds them: many exact ties.
            return abs(rng.randint(0, 9) - rng.randint(0, 8) / 2) + abs(
                rng.randint(0, 9) - rng.randint(0, 8) / 4
            )
        if kind == "float":
            return rng.uniform(-10.0, 10.0)
        if kind == "constant":
            return 1.5
        return rng.choice((0.0, 1.0, 2.0, math.inf))

    return kind, [[cost() for _ in range(n_cols)] for _ in range(n_rows)]


def _solve_both(matrix, n_cols=None):
    """The solver's and scipy's answers; ``"ValueError"`` if one raises."""
    if n_cols is None:
        n_cols = len(matrix[0]) if matrix else 0
    array = np.array(matrix, dtype=float).reshape(len(matrix), n_cols)
    try:
        rows, cols = scipy_assignment(array)
        expected = (rows.tolist(), cols.tolist())
    except ValueError:
        expected = "ValueError"
    try:
        got = linear_sum_assignment(matrix)
    except ValueError:
        got = "ValueError"
    return got, expected


# ----------------------------------------------------------------------
# Differential fuzz against scipy
# ----------------------------------------------------------------------
class TestAssignmentFuzz:
    def test_solver_matches_scipy(self, request):
        def trial(seed: int) -> None:
            rng = random.Random(SEED_BASE + seed)
            for draw in range(MATRICES_PER_TRIAL):
                kind, matrix = _random_matrix(rng)
                got, expected = _solve_both(matrix)
                assert got == expected, (
                    f"{kind} matrix {draw}: solver {got} != scipy {expected} "
                    f"on {matrix}"
                )

        fuzz_corpus(request, trial)


# ----------------------------------------------------------------------
# Fixed cases
# ----------------------------------------------------------------------
class TestAssignmentCases:
    @pytest.mark.parametrize("n_rows, n_cols", [(0, 0), (2, 0)])
    def test_empty_matrix(self, n_rows, n_cols):
        matrix = [[] for _ in range(n_rows)]
        got, expected = _solve_both(matrix, n_cols)
        assert got == expected == ([], [])

    def test_one_by_one(self):
        assert linear_sum_assignment([[7.5]]) == ([0], [0])
        got, expected = _solve_both([[-2.0]])
        assert got == expected

    @pytest.mark.parametrize("n_rows", range(1, 7))
    @pytest.mark.parametrize("n_cols", range(1, 7))
    def test_constant_matrix_gives_the_identity(self, n_rows, n_cols):
        matrix = [[4.0] * n_cols for _ in range(n_rows)]
        identity = list(range(min(n_rows, n_cols)))
        got, expected = _solve_both(matrix)
        assert got == expected == (identity, identity)

    def test_tall_matrix_pairs_are_sorted_by_row(self):
        matrix = [[5.0, 1.0], [0.0, 9.0], [2.0, 0.5], [1.0, 1.0]]
        got, expected = _solve_both(matrix)
        assert got == expected == ([1, 2], [0, 1])

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_nan_and_minus_infinity_raise(self, bad):
        matrix = [[1.0, 2.0], [bad, 3.0]]
        with pytest.raises(ValueError):
            linear_sum_assignment(matrix)
        with pytest.raises(ValueError):
            scipy_assignment(np.array(matrix))

    def test_infeasible_matrix_raises_like_scipy(self):
        matrix = [[math.inf, math.inf], [1.0, 2.0]]
        assert _solve_both(matrix) == ("ValueError", "ValueError")

    def test_ragged_matrix_raises(self):
        with pytest.raises(ValueError):
            linear_sum_assignment([[1.0, 2.0], [3.0]])


# ----------------------------------------------------------------------
# The matrices port reassignment builds
# ----------------------------------------------------------------------
class TestPortReassignmentMatrices:
    @pytest.mark.parametrize(
        "capacity, count, size", [(4, 14, 2), (16, 20, 4), (36, 26, 6)]
    )
    @pytest.mark.parametrize("reuse", [ReusePolicy.NO_REUSE, ReusePolicy.REUSE])
    def test_stitching_matrices_match_scipy(
        self, monkeypatch, capacity, count, size, reuse
    ):
        seen = []

        def spy(matrix):
            seen.append([list(row) for row in matrix])
            return linear_sum_assignment(matrix)

        monkeypatch.setattr(stitching, "linear_sum_assignment", spy)
        stitching.hierarchical_stitching(FactorySpec.from_capacity(capacity, 2), reuse)
        assert len(seen) == count
        for matrix in seen:
            assert (len(matrix), len(matrix[0])) == (size, size)
            got, expected = _solve_both(matrix)
            assert got == expected, matrix


# ----------------------------------------------------------------------
# A runtime without scipy
# ----------------------------------------------------------------------
EVALUATE_LEVEL2_HS = (
    "from repro.api import EvaluationRequest, Pipeline\n"
    "request = EvaluationRequest("
    "method='hierarchical_stitching', capacity=4, levels=2)\n"
    "result = Pipeline().evaluate(request).to_dict()\n"
)


class TestRuntimeWithoutScipy:
    def test_level2_stitching_leaves_scipy_unimported(self):
        out = run_fresh(
            EVALUATE_LEVEL2_HS
            + "import sys\n"
            + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        assert out.strip() == "[]"

    def test_level2_stitching_runs_with_scipy_unimportable(self):
        out = run_fresh(
            "import sys\nsys.modules['scipy'] = None\n"
            + EVALUATE_LEVEL2_HS
            + "import json\nprint(json.dumps(result, sort_keys=True))\n"
        )
        request = EvaluationRequest(
            method="hierarchical_stitching", capacity=4, levels=2
        )
        expected = Pipeline().evaluate(request).to_dict()
        assert json.loads(out) == expected
