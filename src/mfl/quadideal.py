"""The degree-two fibers of the signed monomial map, and the verdicts of all
of S_n that they decide, for restricted matching field ideals.

The degree-two generators of the matching field ideal are found by grouping
all products of two Pluecker variables by their image under the signed
monomial map: monomials in one fiber differ by an element of the kernel.
Restricting by a permutation w sets the variables indexed by the vanishing
set S_w to zero; what survives of each fiber decides the classification

    zero        no generators survive,
    binomial    only two-sided relations survive,
    nonbinomial some fiber contains both a vanishing and a surviving
                monomial, so a monomial lies in the ideal.

The fibers of all cuts of n are found together.  B_ell moves only rows 1
and 2 of a column, so every fiber of every cut lies in a sub-block of
monomials that agree in the rows below, and most fibers are the same for
many cuts: each distinct fiber is kept once with its mask of cuts (2279
for the 11081 (fiber, cut) pairs at n = 7) and folded over S_n once, into
the bitsets of :func:`verdict_masks`.

The brute-force oracle, which restricts the relations of one cut by one w,
lives in :mod:`mfl.oracle`; the exact linear algebra of Theorem A, which
reads these fibers, in :mod:`mfl.flagideal`.  Only the commands and suites
that run them load them.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from mfl import CapabilityError  # re-exported: raised here and by the layers above
from mfl.matchfield import _swap_flag, image_code
from mfl.permcomb import _alive_masks, all_index_keys, check_cut, check_permutation

#: classify_oracle and verdict_masks refuse larger n unless overridden.
ORACLE_BOUND_DEFAULT = 7

ZERO = "zero"
BINOMIAL = "binomial"
NONBINOMIAL = "nonbinomial"


# ---------------------------------------------------------------------------
# Fibers of the signed monomial map in degree two


@lru_cache(maxsize=8)
def _degree_blocks(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The degree-two monomials grouped by multidegree (column multiset plus
    size multiset), as pairs ``(i, j)`` with ``i <= j`` of indices into
    ``all_index_keys(n)``; only blocks of two or more monomials, in order of
    first monomial, each in ``combinations_with_replacement`` order.

    A variable's code has one 2-bit field per value (bit ``2 (v - 1)``) and
    one 3-bit field per size (bit ``2 n + 3 (s - 1)``), so the code of a
    product is the sum of two codes.

    >>> _degree_blocks(3)
    (((0, 5), (1, 4), (2, 3)),)
    """
    variables = all_index_keys(n)
    codes = [
        sum(1 << 2 * (v - 1) for v in key) + (1 << 2 * n + 3 * (len(key) - 1))
        for key in variables
    ]
    groups: dict[int, list[tuple[int, int]]] = {}
    for i, code in enumerate(codes):
        for j in range(i, len(codes)):
            groups.setdefault(code + codes[j], []).append((i, j))
    return tuple(tuple(pairs) for pairs in groups.values() if len(pairs) >= 2)


@lru_cache(maxsize=8)  # the census reads n = 3..7, a verify run n = 3..6
def _fiber_table(n: int) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """Every fiber of size >= 2 of every cut of n, once, as (block, local
    columns, cuts): bit ell of ``cuts`` is set iff the columns of the block
    of :func:`_degree_blocks` form a fiber of B_ell.  Sorted by block and
    columns, so the fibers of one cut come in :func:`mfl.oracle._fibers`
    order.  Of the 11081 (fiber, cut) pairs at n = 7, 2279 are distinct; at
    n = 9, 39532 of 266724.

    B_ell swaps at most rows 1 and 2 of a column, so the grid rows below
    them are the same for every cut, and each block splits once into
    sub-blocks of monomials that agree there; every fiber of every cut lies
    in one.  The block fixes all the entries and the sub-block those below
    row 2, so two monomials of a sub-block share a fiber at a cut exactly
    when their row-1 entries agree as multisets.

    A monomial's row-1 entries under all n cuts are packed in one int, a
    field of ``2 n`` bits per cut holding the sum of ``1 << 2 (v - 1)``
    over its two row-1 entries v.  A sub-block is split cut by cut, its
    members grouped by their field at that cut.  Most sub-blocks (986 of
    1509 at n = 7) have one packed int throughout, so they are one fiber
    at every cut.  The split of any other depends only on its members'
    packed ints, and few tuples of them recur (126 for the other 523 at
    n = 7), so each tuple is split once.

    >>> _fiber_table(3)  # P_1 P_23, P_2 P_13 and P_3 P_12: two of them
    ... # share an image under each B_ell
    ((0, (0, 1), 1), (0, (0, 2), 4), (0, (1, 2), 2))
    """
    width = 2 * n
    field = (1 << width) - 1
    variables = all_index_keys(n)
    # the image code above row 2 (bits from 4 n up) is the same for every cut
    below = [image_code(n, 0, key) >> 4 * n for key in variables]
    # the row-1 entry of P_J under B_e is key[1] where B_e swaps, else key[0]
    row_one = [
        sum(1 << 2 * key[_swap_flag(e, key)] - 2 + width * e for e in range(n))
        for key in variables
    ]
    every_cut = (1 << n) - 1

    def split(packed: tuple[int, ...]) -> list[tuple[itemgetter, int]]:
        # the fibers of a sub-block, as (getter of their members, cuts)
        fibers: dict[tuple[int, ...], int] = {}
        for e in range(n):
            groups: dict[int, list[int]] = {}
            for x, code in enumerate(packed):
                groups.setdefault(code >> width * e & field, []).append(x)
            for members in groups.values():
                if len(members) > 1:
                    fiber = tuple(members)
                    fibers[fiber] = fibers.get(fiber, 0) | 1 << e
        return [(itemgetter(*p), cuts) for p, cuts in fibers.items()]

    splits: dict[tuple[int, ...], list[tuple[itemgetter, int]]] = {}
    table = []
    for b, pairs in enumerate(_degree_blocks(n)):
        sub_blocks: dict[int, list[int]] = {}
        for c, (i, j) in enumerate(pairs):
            sub_blocks.setdefault(below[i] + below[j], []).append(c)
        for columns in sub_blocks.values():
            if len(columns) < 2:
                continue
            packed = [row_one[pairs[c][0]] + row_one[pairs[c][1]] for c in columns]
            if packed.count(packed[0]) == len(packed):  # one fiber at every cut
                table.append((b, tuple(columns), every_cut))
                continue
            packed = tuple(packed)
            fibers = splits.get(packed)
            if fibers is None:
                fibers = splits[packed] = split(packed)
            for fiber, cuts in fibers:
                table.append((b, fiber(columns), cuts))
    table.sort()
    return tuple(table)


# ---------------------------------------------------------------------------
# The verdicts of all of S_n


def _check_case(
    n: int, ell: int, bound: int | None = None, w: tuple[int, ...] | None = None
) -> None:
    """The input checks shared by the classification entry points; a bad
    ``w`` is reported before a bad ``n``, ``ell`` or bound."""
    if w is not None:
        check_permutation(w, n)
    if n < 3:
        raise ValueError(f"classification needs n >= 3, got {n}")
    check_oracle_bound(n, n, bound)
    check_cut(n, ell)


def check_oracle_bound(n_min: int, n_max: int, bound: int | None = None) -> None:
    """Refuse a run over n = n_min..n_max that reaches past the oracle
    bound, naming the first n refused; the sweeps call it before any work."""
    bound = ORACLE_BOUND_DEFAULT if bound is None else bound
    first = max(n_min, bound + 1)
    if first <= n_max:
        raise CapabilityError(f"oracle bound is n <= {bound}, got n = {first}")


class _FiberFolds(NamedTuple):
    """The fibers of one (n, ell) folded over S_n, as bitsets in
    ``itertools.permutations`` order: where some fiber leaves a monomial,
    where some fiber is wholly alive (``once``), and where the wholly alive
    fibers F have ``sum (|F| - 1)`` of at least two (``twice``).  Something
    survives exactly where a monomial is left or a fiber is wholly alive."""

    monomial: int
    once: int
    twice: int


@lru_cache(maxsize=8)  # the census reads n = 3..7, a verify run n = 3..6
def _fiber_folds(n: int) -> tuple[_FiberFolds, ...]:
    """The folds of every cut of n, entry ell for B_ell, with each distinct
    fiber of :func:`_fiber_table` folded once.

    The monomial of column c of a block, the variable pair (i, j), is alive
    on ``va[i] & va[j]``, where ``va`` lists the alive bitsets in variable
    order; a fiber's OR and AND of those are where some and where every
    member survives, and it leaves a monomial where some but not every
    member does.  The fibers of one mask of cuts are folded together and
    then into each of its cuts, one mask at a time: a cut that has a wholly
    alive fiber and gets another from the mask has two.
    """
    alive = _alive_masks(n)
    va = [alive[key] for key in all_index_keys(n)]
    blocks = _degree_blocks(n)
    folds = [[0, 0, 0] for _ in range(n)]
    cut_mask = itemgetter(2)
    for cuts, fibers in itertools.groupby(sorted(_fiber_table(n), key=cut_mask), cut_mask):
        monomial = once = twice = 0
        for b, columns, _ in fibers:
            pairs = blocks[b]
            some, every = 0, -1
            for c in columns:
                i, j = pairs[c]
                bits = va[i] & va[j]
                some |= bits
                every &= bits
            monomial |= some ^ every  # every lies in some
            twice |= every if len(columns) > 2 else once & every
            once |= every
        for ell in range(n):
            if cuts >> ell & 1:
                fold = folds[ell]
                fold[0] |= monomial
                fold[2] |= twice | fold[1] & once
                fold[1] |= once
    return tuple(_FiberFolds(*fold) for fold in folds)


def verdict_masks(n: int, ell: int, bound: int | None = None) -> tuple[int, int]:
    """The verdicts of all of S_n as two bitsets in
    ``itertools.permutations`` order: where a monomial survives
    (non-binomial) and where anything does (not zero).

    A fiber leaves a monomial where some but not every member survives, and
    a binomial or a monomial where some member does (:func:`_fiber_folds`).
    """
    _check_case(n, ell, bound)
    folds = _fiber_folds(n)[ell]
    return folds.monomial, folds.monomial | folds.once


def rank_one_mask(n: int, ell: int) -> int:
    """The w of S_n whose restricted ideal is binomial with degree-two rank
    one, as a bitset in ``itertools.permutations`` order: where
    :func:`mfl.oracle.classify_oracle` gives verdict binomial and
    ``degree2_rank`` 1.

    For a monomial-free w the rank is the sum of ``|F| - 1`` over the wholly
    alive fibers F, so rank one means exactly one wholly alive fiber, and
    that fiber has two members: ``once`` and not ``twice`` of
    :func:`_fiber_folds`.

    >>> bin(rank_one_mask(3, 0))  # bits 3 and 5: w = 231 and 321
    '0b101000'
    """
    _check_case(n, ell)
    folds = _fiber_folds(n)[ell]
    return folds.once & ~(folds.monomial | folds.twice)


def verdict_at(monomial: int, surviving: int, i: int) -> str:
    """The verdict at bit i of the two masks of :func:`verdict_masks`."""
    if monomial >> i & 1:
        return NONBINOMIAL
    return BINOMIAL if surviving >> i & 1 else ZERO
