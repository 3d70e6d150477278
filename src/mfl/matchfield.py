"""Block diagonal matching fields B_ell and the signed monomial map to the grid.

The field B_ell = (1 ... ell | ell+1 ... n) assigns to each index set J a
placement of its elements into rows 1..|J| of the variable grid x_{i,j}.
The convention here indexes ell over 0..n-1 with ell = 0 the diagonal field
(where every column is placed in increasing order); the diagonal field is the
same object as the "ell = n" reading used by some of the classification
statements.

Placement rule.  The textbook definition of B_ell is sometimes printed as
"swap rows 1 and 2 unless |J| = 1 or |J meet {1..ell}| >= 2", which swaps
also when the intersection is empty.  That rule is NOT induced by the weight
matrix M_ell: for (n, ell) = (4, 1) and J = {3, 4} the minimal placement is
the identity.  The rule implemented here is the coherent one,

    swap rows 1 and 2  iff  |J| >= 2 and |J meet {1..ell}| = 1,

and :func:`verify_coherence` checks exhaustively that the weight matrix
attains its unique minimum exactly at this placement.  The literal printed
rule is kept (``rule="literal"``) so the incoherence is demonstrable.

Coherence check.  Rather than sum all |J|! placements of every J, one dynamic
programme over the 2^n subsets S of values per field finds the least weight
of placing S into rows 1..|S| and counts every placement that attains it:
the value in the last row branches, so each subset costs at most n steps.
A set passes when exactly one placement is optimal and the rule's placement
has the optimal weight.  The placements of a failing set are enumerated only
to describe the failure.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

from mfl.permcomb import MAX_N, check_cut


# ---------------------------------------------------------------------------
# Placement and display


def _swap_flag(ell: int, members: Sequence[int], rule: str = "corrected") -> bool:
    if len(members) < 2:
        return False
    # members are sorted: exactly one member, or at most one, is <= ell
    if rule == "corrected":
        return members[0] <= ell < members[1]
    if rule == "literal":
        return ell < members[1]
    raise ValueError(f"unknown rule {rule!r}")


def display_key(n: int, ell: int, members: tuple[int, ...]) -> tuple[int, ...]:
    """Entries of the column of P_J top to bottom, in matching field order.

    >>> display_key(4, 2, (1, 3, 4))
    (3, 1, 4)
    """
    if _swap_flag(ell, members):
        return (members[1], members[0]) + members[2:]
    return members


# ---------------------------------------------------------------------------
# Weight matrix and weights


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


def weight_key(n: int, ell: int, members: tuple[int, ...]) -> int:
    """Closed-form weight of P_J under M_ell.

    Three cases by the size of ``J meet {1..ell}`` (zero, one, at least two);
    singletons have weight 0.  Agrees with the least placement weight that
    :func:`_subset_minima` finds.

    >>> [weight_key(4, 2, j) for j in ((3,), (3, 4), (1, 2))]
    [0, 3, 1]
    """
    s = len(members)
    if s == 1:
        return 0
    low = sum(1 for m in members if m <= ell)
    tail = sum((k - 1) * (n + 1 - members[k - 1]) for k in range(3, s + 1))
    if low == 0:
        return (n + ell + 1 - members[1]) + tail
    if low == 1:
        return (ell + 1 - members[0]) + tail
    return (ell + 1 - members[1]) + tail


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


# ---------------------------------------------------------------------------
# The signed monomial map


def image_code(n: int, ell: int, members: tuple[int, ...]) -> int:
    """Image of P_J under the monomial map, up to sign, as an int code.

    The code has one 2-bit field per grid cell (row, value), at bit
    ``2 ((row - 1) n + value - 1)``, holding how often the cell occurs, so
    the code of a product of two variables is the sum of their codes.  Two
    degree-two monomials have equal codes exactly when their images agree
    up to sign, that is when their matching-field tableaux are row-wise
    equal.

    >>> image_code(4, 2, (1, 3)) == 1 << 4 | 1 << 8  # cells (1, 3), (2, 1)
    True
    """
    return sum(
        1 << 2 * ((row - 1) * n + value - 1)
        for row, value in enumerate(display_key(n, ell, members), start=1)
    )
