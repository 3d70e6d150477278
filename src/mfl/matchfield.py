"""Block diagonal matching fields B_ell and the signed monomial map to the grid.

The field B_ell = (1 ... ell | ell+1 ... n) assigns to each index set J a
placement of its elements into rows 1..|J| of the variable grid x_{i,j}.
The convention here indexes ell over 0..n-1 with ell = 0 the diagonal field
(where every column is placed in increasing order); the diagonal field is the
same object as the "ell = n" reading used by some of the classification
statements.

B_ell places each J where the weight matrix M_ell weighs it least:

    swap rows 1 and 2  iff  |J| >= 2 and |J meet {1..ell}| = 1.

This module is the one place that knows how B_ell places a variable
(:func:`_swap_flag`), weighs it (:func:`weight_key`) and re-places it as
ell moves (:func:`_breakpoints`).  :mod:`mfl.coherence`, which only the
coherence suite loads, checks the rule against M_ell and shows that the
rule sometimes printed is not induced by it.
"""

from __future__ import annotations

from typing import Sequence


# ---------------------------------------------------------------------------
# Placement and display


def _swap_flag(ell: int, members: Sequence[int]) -> bool:
    # members are sorted: exactly one member is <= ell
    return len(members) > 1 and members[0] <= ell < members[1]


def _breakpoints(members: Sequence[int]) -> int:
    """The cuts where B_ell may place or weigh J unlike at the cut before,
    as a bitmask: J[0] and J[1], none for a singleton.  At any other cut,
    J keeps its swap flag, so the same member sits in row 2 on the same
    side of the cut, and its weight grows by 1 (stays 0 for a singleton).

    >>> bin(_breakpoints((2, 4, 5))), _breakpoints((3,))
    ('0b10100', 0)
    """
    return 1 << members[0] | 1 << members[1] if len(members) > 1 else 0


def display_key(n: int, ell: int, members: tuple[int, ...]) -> tuple[int, ...]:
    """Entries of the column of P_J top to bottom, in matching field order.

    >>> display_key(4, 2, (1, 3, 4))
    (3, 1, 4)
    """
    if _swap_flag(ell, members):
        return (members[1], members[0]) + members[2:]
    return members


# ---------------------------------------------------------------------------
# The weight of a placement


def _weight_entry(n: int, ell: int, row: int, value: int) -> int:
    """The entry of M_ell at (row, value): row 2 encodes the block cut, and
    every other row r is (r - 1)(n + 1 - value), so row 1 is zero."""
    if row == 2:
        return ell + 1 - value if value <= ell else n + ell + 1 - value
    return (row - 1) * (n + 1 - value)


def weight_key(n: int, ell: int, members: tuple[int, ...]) -> int:
    """Weight of P_J under M_ell: the weight of its :func:`display_key`
    placement, which is the least placement weight that
    :func:`mfl.coherence._subset_minima` finds.

    >>> [weight_key(4, 2, j) for j in ((3,), (3, 4), (1, 2))]
    [0, 3, 1]
    """
    return sum(_weight_entry(n, ell, row, value)
               for row, value in enumerate(display_key(n, ell, members), start=1))


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
