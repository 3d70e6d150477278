"""The coherence check: the weight matrix M_ell induces the placement rule of
the block diagonal matching field B_ell (:func:`mfl.matchfield._swap_flag`),
and not the rule sometimes printed (:func:`_printed_swap`).

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

from mfl.matchfield import _swap_flag, _weight_entry
from mfl.permcomb import MAX_N, check_cut


def weight_matrix(n: int, ell: int) -> tuple[tuple[int, ...], ...]:
    """The n x n weight matrix M_ell inducing B_ell, as a tuple of rows of
    :func:`mfl.matchfield._weight_entry`.

    >>> weight_matrix(4, 2)
    ((0, 0, 0, 0), (2, 1, 4, 3), (8, 6, 4, 2), (12, 9, 6, 3))
    """
    return tuple(tuple(_weight_entry(n, ell, row, value) for value in range(1, n + 1))
                 for row in range(1, n + 1))


def _placement_weights(
    n: int, ell: int, members: tuple[int, ...]
) -> dict[tuple[int, ...], int]:
    """Weight of every placement; keys are row assignments (rows[k] holds
    the row given to the k-th smallest element)."""
    matrix = weight_matrix(n, ell)
    return {rows: sum(matrix[r - 1][m - 1] for r, m in zip(rows, members))
            for rows in itertools.permutations(range(1, len(members) + 1))}


def _printed_swap(ell: int, members: tuple[int, ...]) -> bool:
    """The rule sometimes printed for B_ell: swap rows 1 and 2 unless |J| = 1
    or |J meet {1..ell}| >= 2, so also when no member is <= ell.  M_ell does
    not induce it: at (n, ell) = (4, 1) it places J = {3, 4} as is."""
    return len(members) > 1 and ell < members[1]


_RULES = {"corrected": _swap_flag, "literal": _printed_swap}


def _rule_placement(ell: int, members: tuple[int, ...], rule: str) -> tuple[int, ...]:
    rows = tuple(range(1, len(members) + 1))
    return rows[1::-1] + rows[2:] if _RULES[rule](ell, members) else rows


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
    if rule not in _RULES:
        raise ValueError(f"unknown rule {rule!r}")
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
