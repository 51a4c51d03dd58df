"""Exact rectangular linear sum assignment, for port reassignment.

Hierarchical stitching (Section VII-B) reassigns each producer module's
output ports to its consumer modules by solving one small assignment
problem per producer (:func:`repro.mapping.stitching._reassign_ports`).
:func:`linear_sum_assignment` solves it with the shortest augmenting path
method of D. F. Crouse, "On implementing 2D rectangular assignment
algorithms", IEEE Trans. Aerospace and Electronic Systems 52(4), 2016,
following ``scipy.optimize.linear_sum_assignment`` step for step, so it
returns scipy's exact indices, ties included:

* rows are augmented in order, each by a Dijkstra search over the reduced
  cost ``min_val + cost[i][j] - u[i] - v[j]``, evaluated in that order;
* the unvisited columns start in reverse order (a constant matrix gives
  the identity), and a chosen column is replaced by the last one left;
* the lowest path cost wins, and on a tie a column with no row assigned
  yet replaces the earlier minimum;
* a tall matrix is solved transposed, and its pairs are sorted by row.

The arithmetic has no multiply, so Python's IEEE doubles reproduce
scipy's sums bit for bit.  ``tests/test_assignment.py`` fuzzes the
solver against scipy, its oracle.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple


def linear_sum_assignment(
    cost_matrix: Sequence[Sequence[float]],
) -> Tuple[List[int], List[int]]:
    """Minimum-cost assignment of rows to columns of ``cost_matrix``.

    Returns ``(rows, cols)``: ``min(n_rows, n_cols)`` pairs with rows in
    ascending order, as ``scipy.optimize.linear_sum_assignment`` returns
    them.  Raises :class:`ValueError` on a ragged matrix, on NaN or -inf
    entries, and when +inf entries leave no finite assignment.
    """
    cost = [[float(value) for value in row] for row in cost_matrix]
    n_cols = len(cost[0]) if cost else 0
    if any(len(row) != n_cols for row in cost):
        raise ValueError("cost matrix must be rectangular")
    if any(value != value or value == -math.inf for row in cost for value in row):
        raise ValueError("cost matrix contains NaN or -inf entries")
    if not n_cols:
        return [], []
    transpose = n_cols < len(cost)
    if transpose:
        cost = [list(column) for column in zip(*cost)]
    n_rows, n_cols = len(cost), len(cost[0])

    u = [0.0] * n_rows
    v = [0.0] * n_cols
    path = [-1] * n_cols
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols
    for current in range(n_rows):
        shortest = [math.inf] * n_cols
        remaining = list(range(n_cols - 1, -1, -1))
        visited_rows: List[int] = []
        visited_cols: List[int] = []
        min_val = 0.0
        row = current
        sink = -1
        while sink == -1:
            visited_rows.append(row)
            costs, u_row = cost[row], u[row]
            index, lowest = -1, math.inf
            for position, j in enumerate(remaining):
                reduced = min_val + costs[j] - u_row - v[j]
                if reduced < shortest[j]:
                    path[j] = row
                    shortest[j] = reduced
                if shortest[j] < lowest or (
                    shortest[j] == lowest and row4col[j] == -1
                ):
                    index, lowest = position, shortest[j]
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                row = row4col[j]
            visited_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()

        u[current] += min_val
        for row in visited_rows[1:]:
            u[row] += min_val - shortest[col4row[row]]
        for j in visited_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            row = path[j]
            row4col[j] = row
            col4row[row], j = j, col4row[row]
            if row == current:
                break

    if transpose:
        # Solved rows are the caller's columns; list the pairs by its rows.
        pairs = sorted((row, column) for column, row in enumerate(col4row))
        return [row for row, _ in pairs], [column for _, column in pairs]
    return list(range(n_rows)), col4row
