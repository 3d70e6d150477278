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

and :func:`mfl.coherence.verify_coherence` checks exhaustively that the
weight matrix attains its unique minimum exactly at this placement.  The
literal printed rule is kept (``rule="literal"``) so the incoherence is
demonstrable.

This module holds the placement rule, the weight of the rule's placement
(:func:`weight_key`) and the image of a variable under the monomial map
(:func:`image_code`); the weight matrix and the coherence check are in
:mod:`mfl.coherence`, which only the coherence suite loads.
"""

from __future__ import annotations

from typing import Sequence


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
# The weight of a placement


def weight_key(n: int, ell: int, members: tuple[int, ...]) -> int:
    """Closed-form weight of P_J under M_ell.

    Three cases by the size of ``J meet {1..ell}`` (zero, one, at least two);
    singletons have weight 0.  Agrees with the least placement weight that
    :func:`mfl.coherence._subset_minima` finds.

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
