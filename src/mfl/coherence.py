"""The coherence check: the weight matrix M_ell induces the placement rule of
the block diagonal matching field B_ell (:func:`mfl.matchfield._swap_flag`).

Rather than sum all |J|! placements of every J, one dynamic programme over
the 2^n subsets S of values per field finds the least weight of placing S
into rows 1..|S| and counts every placement that attains it: the value in
the last row branches, so each subset costs at most n steps.  A set passes
when exactly one placement is optimal and the rule's placement has the
optimal weight.  The placements of a failing set are enumerated only to
describe the failure.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from mfl.matchfield import _swap_flag
from mfl.permcomb import MAX_N, check_cut


def weight_matrix(n: int, ell: int) -> tuple[tuple[int, ...], ...]:
    """The n x n weight matrix M_ell inducing B_ell, as a tuple of rows: row
    1 is zero, row 2 encodes the block cut, rows r >= 3 are (r-1)(n+1-j).

    >>> weight_matrix(4, 2)
    ((0, 0, 0, 0), (2, 1, 4, 3), (8, 6, 4, 2), (12, 9, 6, 3))
    """
    rows = [tuple([0] * n)]
    row2 = [ell + 1 - j if j <= ell else n + ell + 1 - j for j in range(1, n + 1)]
    if n >= 2:
        rows.append(tuple(row2))
    for r in range(3, n + 1):
        rows.append(tuple((r - 1) * (n + 1 - j) for j in range(1, n + 1)))
    return tuple(rows)


def _placement_weights(
    n: int, ell: int, members: tuple[int, ...]
) -> dict[tuple[int, ...], int]:
    """Weight of every placement; keys are row assignments (rows[k] holds
    the row given to the k-th smallest element)."""
    matrix = weight_matrix(n, ell)
    s = len(members)
    out = {}
    for rows in itertools.permutations(range(1, s + 1)):
        out[rows] = sum(matrix[rows[k] - 1][members[k] - 1] for k in range(s))
    return out


def _rule_placement(ell: int, members: tuple[int, ...], rule: str) -> tuple[int, ...]:
    s = len(members)
    rows = list(range(1, s + 1))
    if _swap_flag(ell, members, rule):
        rows[0], rows[1] = rows[1], rows[0]
    return tuple(rows)


class CoherenceFailure(NamedTuple):
    members: tuple[int, ...]
    expected_rows: tuple[int, ...]
    minimal_rows: tuple[tuple[int, ...], ...]
    tie: bool


class CoherenceReport(NamedTuple):
    n: int
    ell: int
    rule: str
    checked: int
    failures: tuple[CoherenceFailure, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def first_failure(self) -> CoherenceFailure | None:
        return self.failures[0] if self.failures else None


def _subset_minima(n: int, ell: int) -> tuple[list[int], list[int]]:
    """``best[S]`` and ``ways[S]`` for every bitmask S of values (bit v - 1
    for value v): the least weight under M_ell of placing S into rows
    1..|S|, and the number of placements that attain it.  The value in row
    |S| branches: best[S] = min over v in S of best[S - v] + M_ell[|S|][v],
    and ``ways`` adds up the branches that reach the minimum.

    >>> best, ways = _subset_minima(4, 1)
    >>> best[0b1100], ways[0b1100]  # J = {3, 4}
    (2, 1)
    """
    matrix = weight_matrix(n, ell)
    best = [0] * (1 << n)
    ways = [0] * (1 << n)
    ways[0] = 1
    for s in range(1, 1 << n):
        weights = matrix[s.bit_count() - 1]
        least = None
        rest = s
        while rest:
            bit = rest & -rest
            rest ^= bit
            sub = s ^ bit
            weight = best[sub] + weights[bit.bit_length() - 1]
            if least is None or weight < least:
                least, count = weight, ways[sub]
            elif weight == least:
                count += ways[sub]
        best[s] = least
        ways[s] = count
    return best, ways


def verify_coherence(n: int, ell: int, rule: str = "corrected") -> CoherenceReport:
    """Check that M_ell induces the placement rule of the field B_ell,
    ``0 <= ell <= n - 1`` and ``n <= MAX_N``.

    For every index set J, count all placements of minimum weight with one
    subset dynamic programme (:func:`_subset_minima`, 2^n states) and assert
    that the minimum is attained once, at the placement the rule dictates.
    Ties and wrong minima are reported as failures, not raised; only a
    failing J has its |J|! placements enumerated, to name the minimal ones.

    >>> verify_coherence(4, 1).ok, verify_coherence(4, 1, rule="literal").ok
    (True, False)
    """
    check_cut(n, ell)
    if n > MAX_N:
        raise ValueError(f"n must be at most {MAX_N}, got {n}")
    matrix = weight_matrix(n, ell)
    best, ways = _subset_minima(n, ell)
    failures = []
    for size in range(1, n):
        for members in itertools.combinations(range(1, n + 1), size):
            expected = _rule_placement(ell, members, rule)
            weight = sum(matrix[r - 1][m - 1] for r, m in zip(expected, members))
            s = sum(1 << (m - 1) for m in members)
            if ways[s] == 1 and weight == best[s]:
                continue
            weights = _placement_weights(n, ell, members)
            argmin = tuple(sorted(rows for rows, v in weights.items() if v == best[s]))
            failures.append(
                CoherenceFailure(
                    members=members,
                    expected_rows=expected,
                    minimal_rows=argmin,
                    tie=len(argmin) > 1,
                )
            )
    return CoherenceReport(n, ell, rule, (1 << n) - 2, tuple(failures))
