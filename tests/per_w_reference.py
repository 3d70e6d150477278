"""Per-permutation references for the claims ``mfl`` decides on bitsets over
S_n: pattern avoidance and the insert-max moves, the zero family, the
descending property and the pattern family one w at a time, Bruhat order
by the dominance criterion at every prefix, standardness and the degree-two
row-class count for one (w, tableau), and the signed image of one Pluecker
variable.  The package reads the masks of
``mfl.theoremsets.family_masks``, the standardness counter of
``mfl.tableaux._level`` and the int codes of ``mfl.matchfield.image_code``
instead; the tests compare the two, w by w."""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import le
from typing import Sequence

from mfl.matchfield import _swap_flag, display_key, image_code
from mfl.permcomb import (
    _alive_masks,
    all_index_keys,
    bruhat_up_set,
    check_permutation,
    permutation_index,
    restriction,
    sorted_prefixes,
    vanishing_keys,
)
from mfl.tableaux import Columns, min_defining_chain2
from mfl.theoremsets import _staircase

# ---------------------------------------------------------------------------
# Insert-max moves and pattern avoidance


def insert_max(w: tuple[int, ...], t: int) -> tuple[int, ...]:
    """Insert the new maximum value n+1 after position t (0 <= t <= n).

    >>> insert_max((1, 2), 1)
    (1, 3, 2)
    """
    if not 0 <= t <= len(w):
        raise ValueError(f"insertion position must be in 0..{len(w)}, got {t}")
    return w[:t] + (len(w) + 1,) + w[t:]


def remove_max(w: tuple[int, ...]) -> tuple[int, ...]:
    """Delete the maximum value n; inverse of :func:`insert_max`."""
    if len(w) < 2:
        raise ValueError("cannot remove the maximum from a singleton permutation")
    return tuple(v for v in w if v != len(w))


def same_type(a: Sequence[int], b: Sequence[int]) -> bool:
    """Two distinct-entry sequences have the same type if all pairwise
    comparisons agree."""
    if len(a) != len(b):
        return False
    return all(
        (a[i] < a[j]) == (b[i] < b[j])
        for i in range(len(a))
        for j in range(i + 1, len(a))
    )


def avoids(word: Sequence[int], pattern: Sequence[int]) -> bool:
    """True iff no subsequence of ``word`` has the same type as ``pattern``.

    >>> avoids((1, 5, 2, 4, 3), (1, 4, 3, 2))
    False
    >>> avoids((1, 5, 2, 4, 3), (2, 3, 1))
    True
    """
    word_t = tuple(word)
    pattern_t = tuple(pattern)
    if len(pattern_t) > len(word_t):
        raise ValueError("pattern longer than word")
    for positions in itertools.combinations(range(len(word_t)), len(pattern_t)):
        if same_type(tuple(word_t[p] for p in positions), pattern_t):
            return False
    return True


def is_312_free(word: Sequence[int]) -> bool:
    """No subsequence (large, small, middle); O(n^2) scan.

    >>> is_312_free((3, 1, 2))
    False
    >>> is_312_free((4, 3, 1))
    True
    """
    values = tuple(word)
    n = len(values)
    for j in range(1, n - 1):
        # largest value before position j can serve as the "3"
        big = max(values[:j])
        if big <= values[j]:
            continue
        for k in range(j + 1, n):
            if values[j] < values[k] < big:
                return False
    return True


def has_descending_property(w: Sequence[int]) -> bool:
    """Entries after the position of n are strictly decreasing.

    >>> has_descending_property((2, 1, 4, 3))
    True
    >>> has_descending_property((1, 4, 2, 3))
    False
    """
    tail = w[w.index(len(w)):]
    return all(a > b for a, b in zip(tail, tail[1:]))


# ---------------------------------------------------------------------------
# The zero and pattern families, one permutation at a time


def in_zero_family(w: Sequence[int]) -> bool:
    """Product of pairwise non-adjacent simple transpositions.

    Closed-form test: w is an involution moving each point by at most one,
    i.e. w(w(i)) = i and |w_i - i| <= 1 for all i.

    >>> [in_zero_family(w) for w in ((1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 2, 1))]
    [True, True, True, False]
    """
    return all(abs(v - i) <= 1 for i, v in enumerate(w, start=1)) and all(
        w[v - 1] == i for i, v in enumerate(w, start=1)
    )


def _double_staircase(a: int, b: int) -> tuple[int, ...]:
    """(a, b, b-1, ..., a+1, a-1, ..., 1), a permutation of [b]."""
    return (a, b) + tuple(range(b - 1, a, -1)) + tuple(range(a - 1, 0, -1))


def in_pattern_family(w: tuple[int, ...], ell: int) -> bool:
    """Monomial-free characterization through 312-avoidance.

    For ell = 0 (diagonal) this is plain 312-freeness.  For 1 <= ell <= n-1:

    - a permutation containing a 312 pattern belongs iff w_1 > w_2 = ell and
      w with the value ell deleted is 312-free;
    - a 312-free permutation belongs unless some restriction w|_m equals
      (m-1, m, m-2, ..., 1) while the head fails w_1 < w_2 <= ell or
      w|_{w_2} differs from (w_1, w_2, w_2-1, ..., w_1+1, w_1-1, ..., 1).

    >>> in_pattern_family((4, 2, 3, 1), 2)
    True
    >>> in_pattern_family((2, 4, 3, 1), 2)
    False
    """
    n = len(w)
    check_permutation(w, n)
    if not 0 <= ell <= n - 1:
        raise ValueError(f"ell must be in 0..{n - 1}, got {ell}")
    if ell == 0:
        return is_312_free(w)
    if not is_312_free(w):
        return w[0] > w[1] == ell and is_312_free([v for v in w if v != ell])
    triggered = any(
        restriction(w, m) == _staircase(m) for m in range(3, n + 1)
    )
    if not triggered:
        return True
    return (
        w[0] < w[1] <= ell
        and restriction(w, w[1]) == _double_staircase(w[0], w[1])
    )


# ---------------------------------------------------------------------------
# Bruhat order by the dominance criterion at every prefix


def bruhat_leq_all_prefixes(ve: Sequence[int], we: Sequence[int]) -> bool:
    """``v <= w`` iff every sorted prefix {v_1, ..., v_k} with k < n is
    Gale-below {w_1, ..., w_k}; the reference for
    :func:`mfl.permcomb.bruhat_leq`, which compares at the descents of v.

    >>> bruhat_leq_all_prefixes((2, 1, 3), (3, 2, 1))
    True
    """
    if len(ve) != len(we):
        raise ValueError(f"size mismatch: {len(ve)} != {len(we)}")
    return all(
        all(map(le, sorted(ve[:k]), sorted(we[:k]))) for k in range(1, len(ve))
    )


def bruhat_up_set_all_prefixes(entries: tuple[int, ...]) -> int:
    """The AND of ``alive[sorted(v_1, ..., v_k)]`` over k = 1..n-1; the
    reference for :func:`mfl.permcomb.bruhat_up_set`, which ANDs at the
    descents of v."""
    alive = _alive_masks(len(entries))
    mask = (1 << math.factorial(len(entries))) - 1
    for prefix in sorted_prefixes(entries)[:-1]:
        mask &= alive[prefix]
    return mask


# ---------------------------------------------------------------------------
# Standardness and row classes for one (w, tableau)


def is_standard(n: int, columns: Columns, w: tuple[int, ...]) -> bool:
    """Standardness for X(w): the minimum chain ends Bruhat-below w.

    Read as one bit: the tableau is standard iff w lies in the Bruhat
    up-set of the chain's last permutation
    (:func:`mfl.permcomb.bruhat_up_set`), at bit
    :func:`mfl.permcomb.permutation_index` of w.

    >>> is_standard(4, ((1, 2, 4), (3,)), (3, 2, 1, 4))
    False
    """
    check_permutation(w, n)
    return bool(_chain_up_set(n, columns) >> permutation_index(w) & 1)


@lru_cache(maxsize=16384)  # the tableaux with n <= 7 number 8286
def _chain_up_set(n: int, columns: Columns) -> int:
    """The Bruhat up-set of the minimum chain's end, kept per tableau so
    that a loop over w builds each chain once."""
    return bruhat_up_set(min_defining_chain2(n, columns)[-1])


def standard_monomial_count_deg2(n: int, ell: int, w: tuple[int, ...]) -> int:
    """Number of distinct monomial-map images among degree-two products of
    non-vanishing Pluecker variables.

    >>> standard_monomial_count_deg2(3, 0, (3, 2, 1))
    20
    """
    check_permutation(w, n)
    vanset = vanishing_keys(w)
    codes = [image_code(n, ell, k) for k in all_index_keys(n) if k not in vanset]
    return len({a + b for a, b in itertools.combinations_with_replacement(codes, 2)})


# ---------------------------------------------------------------------------
# The signed monomial map, one variable at a time


def variable_image_key(
    n: int, ell: int, members: tuple[int, ...]
) -> tuple[tuple[tuple[int, int], ...], int]:
    """Image of P_J under the signed monomial map, as (sorted cells, sign).

    P_J maps to sgn(B_ell(J)) times the product of x_{row, value} over its
    displayed column; a product of variables maps to the union of their
    cells and the product of their signs.

    >>> variable_image_key(4, 2, (1, 3))
    (((1, 3), (2, 1)), -1)
    """
    disp = display_key(n, ell, members)
    cells = tuple(sorted((row, col) for row, col in enumerate(disp, start=1)))
    sign = -1 if _swap_flag(ell, members) else 1
    return cells, sign
