"""The degree-two flag ideal and Theorem A, by exact linear algebra.

The degree-two piece of the full flag ideal is built from the incidence
Pluecker relations, one multidegree block at a time in canonical echelon
form by exact integer elimination.  Theorem A is checked on it: for every
monomial-free w, each block's flag rows restricted to X(w) must have
lowest-weight initial forms spanned by the surviving fiber binomials.

Most of this work repeats, and each repeat is done once per n.  Blocks
with the same local relations share one elimination (26 relation lists
for the 5316 blocks at n = 8).  What a block's check reads (its flag rows;
of a cut, the weight ties and relative fiber signs) is the same for many
blocks and cuts, so each distinct layout is built once, keyed by ints (250
of 8640 at n = 8).  Between a variable's breakpoints
(:func:`mfl.matchfield._breakpoints`) the weights of a block's monomials
shift alike, so a block is keyed only at its variables' breakpoints.
Which of a block's monomials survive a w does not depend on
the cut: per block, the checked w (a :class:`mfl.permcomb.View` of S_n) are
split once by the surviving columns, and each distinct (layout, surviving
columns) is decided once.  Only the Theorem A suite imports this module,
and with it :mod:`mfl.exactla`.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, reduce
from operator import add, ne, or_
from typing import Iterator, NamedTuple

from mfl import exactla
from mfl.matchfield import _breakpoints, _swap_flag, weight_key
from mfl.permcomb import View, _alive_masks, all_index_keys
from mfl.quadideal import (
    CapabilityError,
    _check_case,
    _degree_blocks,
    _fiber_folds,
    _fiber_table,
)

#: theorem_a_masks refuses larger n unless passed a larger cap
#: (``mfl --la-cap``).
LA_CAP_DEFAULT = 5


class _FlagBlock(NamedTuple):
    """The flag ideal in one multidegree (column multiset plus size multiset).

    ``members`` are the block's monomials as increasing indices into
    ``combinations_with_replacement(all_index_keys(n), 2)``; local column c
    is ``members[c]``.  ``rows`` is the reduced echelon basis of the block's
    part of the ideal, over local columns.
    """

    members: tuple[int, ...]
    rows: tuple[exactla.Row, ...]


def _check_la_cap(n: int, cap: int | None) -> None:
    cap = LA_CAP_DEFAULT if cap is None else cap
    if n > cap:
        raise CapabilityError(f"linear-algebra cap is n <= {cap}, got n = {n}")


@lru_cache(maxsize=8)
def _flag_ideal(n: int) -> tuple[_FlagBlock, ...]:
    """Degree-two piece of the full flag ideal, from the incidence Pluecker
    relations, one block per block of :func:`mfl.quadideal._degree_blocks`.

    For ``1 <= p <= q <= n - 1``, an ``I`` of size ``p - 1`` and a ``J`` of
    size ``q + 1`` give the relation ``sum_k (-1)^k P_{I j_k} P_{J - j_k}``
    (alternating in the indices of ``P``); these span the degree-two part of
    the ideal.  Each relation is homogeneous in the column multiset and the
    size multiset, so the ideal is a direct sum of these blocks, and each
    block's relations are put in reduced echelon form on their own.

    Each relation is written straight onto its block's local columns: a
    variable is looked up by its set of members as a bitmask, and the
    monomial of variables ``i <= j`` by ``i * size + j``.  Terms with a
    repeated index vanish, repeated monomials are merged, zero coefficients
    are left to ``rref``, and a relation whose block holds one monomial
    only is dropped.  Many blocks get the same local relations (26 lists
    for 5316 blocks at n = 8), so each list, keyed by its rows' entries in
    order, is reduced once and its basis shared.
    """
    variables = all_index_keys(n)
    size = len(variables)
    index = {sum(1 << v for v in key): i for i, key in enumerate(variables)}
    blocks = _degree_blocks(n)
    place = {  # monomial i * size + j -> (block, local column)
        i * size + j: (b, c)
        for b, pairs in enumerate(blocks) for c, (i, j) in enumerate(pairs)
    }
    relations: list[list[exactla.Row]] = [[] for _ in blocks]
    subsets = [[(s, sum(1 << v for v in s)) for s in itertools.combinations(range(1, n + 1), k)]
               for k in range(n + 1)]  # per size, each subset with its bitmask
    for p in range(1, n):
        for q in range(p, n):
            for _, low in subsets[p - 1]:
                for upper, up in subsets[q + 1]:
                    row: exactla.Row = {}
                    for k, j in enumerate(upper):
                        bit = 1 << j
                        if low & bit:
                            continue
                        a, b = index[low | bit], index[up ^ bit]
                        found = place.get(a * size + b if a <= b else b * size + a)
                        if found is None:  # its block holds one monomial
                            break
                        block, c = found
                        # sorting (lower, j) moves j past every larger entry
                        sign = -1 if (k + (low >> j).bit_count()) % 2 else 1
                        row[c] = row.get(c, 0) + sign
                    else:  # J has two entries more than I, so a term set block
                        relations[block].append(row)
    bases: dict[tuple, tuple[exactla.Row, ...]] = {}
    flag = []
    for pairs, rows in zip(blocks, relations):
        key = tuple(tuple(row.items()) for row in rows)
        if key not in bases:
            bases[key] = tuple(exactla.rref(rows).rows)
        # (i, j) is monomial i * size - i * (i - 1) / 2 + j - i
        members = tuple(i * size - i * (i - 1) // 2 + j - i for i, j in pairs)
        flag.append(_FlagBlock(members, bases[key]))
    return tuple(flag)


class _BlockLayout(NamedTuple):
    """A flag block as the Theorem A check sees it for one (n, ell).

    ``rows`` is the block's flag rows over its local columns.  ``weights``
    is the total weight of each local column, or any values in the same
    order with the same ties (all that the check reads of them), and
    ``position`` its place in (weight, monomial) order.  Each fiber is its
    mask of local columns plus the image sign of each of its columns.
    """

    rows: tuple[exactla.Row, ...]
    weights: tuple[int, ...]
    position: tuple[int, ...]
    fibers: tuple[tuple[int, dict[int, int]], ...]


def _block_layout(rows: tuple[exactla.Row, ...], weights: tuple[int, ...],
                  fibers: tuple[tuple[int, int], ...]) -> _BlockLayout:
    """The layout of one block, from the weight (or weight rank) of each
    local column and, per fiber, its mask of local columns and the mask of
    those of image sign -1 (or of sign unlike its first column's)."""
    # the stable sort keeps tied columns in local (monomial) order
    order = sorted(range(len(weights)), key=weights.__getitem__)
    position = sorted(range(len(order)), key=order.__getitem__)  # its inverse
    return _BlockLayout(rows, weights, tuple(position), tuple(
        (mask, {c: -1 if neg >> c & 1 else 1 for c in range(mask.bit_length()) if mask >> c & 1})
        for mask, neg in fibers))


def _block_matches(layout: _BlockLayout, alive: int) -> bool | None:
    """Theorem A in the block of ``layout`` with the monomials of the
    ``alive`` mask surviving: None if a fiber is partly alive, else
    whether the surviving fiber binomials span the block's initial forms.

    A fiber's binomials span the kernel of ``v -> sum_c s_c v_c`` on its
    columns, so the wholly alive fibers F span ``sum (|F| - 1)`` dimensions.
    The rows of any echelon basis in (weight, monomial) order have distinct
    pivots, so their truncations to the pivot's weight are a basis of the
    initial forms.  One forward elimination of the projected flag rows thus
    decides the equality: the rank must be that sum, and every truncation
    must lie on wholly alive fibers with each signed fiber sum zero.
    """
    rank = 0
    # column -> (fiber, sign) over the wholly alive fibers
    live_sign: dict[int, tuple[int, int]] = {}
    for f, (mask, signs) in enumerate(layout.fibers):
        live = alive & mask
        if live == mask:
            rank += len(signs) - 1
            live_sign.update((c, (f, s)) for c, s in signs.items())
        elif live:
            return None
    position, weights = layout.position, layout.weights
    basis: dict[int, exactla.Row] = {}
    for flag_row in layout.rows:
        row = {c: v for c, v in flag_row.items() if alive >> c & 1}
        while row:
            pivot = min(row, key=position.__getitem__)
            if pivot not in basis:
                break
            row = exactla._eliminate(row, basis[pivot], pivot)
        if not row:
            continue
        if len(basis) == rank:
            return False
        basis[pivot] = row
        sums = [0] * len(layout.fibers)
        for c, v in row.items():
            if weights[c] == weights[pivot]:
                if c not in live_sign:
                    return False
                f, s = live_sign[c]
                sums[f] += s * v
        if any(sums):
            return False
    return len(basis) == rank


class TheoremAMasks(NamedTuple):
    """Theorem A over all of S_n for one (n, ell), as bitsets in
    ``itertools.permutations`` order: the monomial-free w that are checked,
    those where the equality fails, and among these the w where a block
    finds a fiber partly alive after all (so the verdict was wrong)."""

    checked: int
    failing: int
    partial: int


def _shared_layouts(
    n: int,
) -> Iterator[tuple[tuple[tuple[int, int], ...], list[tuple[int, _BlockLayout, list[int]]]]]:
    """Per block of the flag ideal at n that holds a flag row or a fiber of
    some cut: its pairs, and its layouts with the cuts that share each.

    The (block, cut) pairs that agree on all :func:`_block_matches` reads
    (flag rows, weight ties, fiber signs up to a whole fiber's) share one
    layout, built once per call and indexed in order of first use, keyed by
    ints: an index of the rows' entries, the weight ranks, and per fiber the
    column mask and the columns whose sign differs from the first's.  A
    block is keyed only at cut 0 and at the breakpoints of its variables
    (other cuts join the cut before), from flat per-cut data.
    """
    keys, blocks = all_index_keys(n), _degree_blocks(n)
    first, second = zip(*itertools.chain.from_iterable(blocks))

    def flat(values: list, op) -> Iterator:  # per monomial of all blocks
        return map(op, map(values.__getitem__, first), map(values.__getitem__, second))
    weights = [list(flat([weight_key(n, ell, k) for k in keys], add)) for ell in range(n)]
    negative = [  # bit text: character k is 1 iff monomial k has sign -1
        bytes(flat([_swap_flag(ell, k) for k in keys], ne)).translate(b"01".ljust(256))
        for ell in range(n)]
    breaks = list(flat([_breakpoints(k) for k in keys], or_))
    table: list[list[tuple[int, int, int]]] = [[] for _ in blocks]
    for b, columns, cuts in _fiber_table(n):
        table[b].append((reduce(or_, map((1).__lshift__, columns)), columns[0], cuts))
    flag = _flag_ideal(n)  # held, so each basis tuple keeps its id
    contents: dict[tuple, int] = {}  # rows' entries (read once per basis tuple) -> index
    index = {id(rows): contents.setdefault(tuple(map(tuple, map(dict.items, rows))), len(contents))
             for rows in {id(block.rows): block.rows for block in flag}.values()}
    layouts: dict[tuple, tuple[int, _BlockLayout]] = {}
    end = 0
    for block, pairs, fibers in zip(flag, blocks, table):
        start, end = end, end + len(pairs)
        basis = index[id(block.rows)]
        groups: dict[tuple, list[int]] = {}  # (basis, weight ranks, fibers) -> cuts
        at, ells = reduce(or_, breaks[start:end], 1), None
        for ell in range(n):
            if at >> ell & 1:
                signs = int(negative[ell][start:end][::-1], 2)
                # a fiber's binomials are the same with all its signs flipped
                cut_fibers = tuple([(mask, (signs ^ -(signs >> c & 1)) & mask)
                                    for mask, c, cuts in fibers if cuts >> ell & 1])
                weight = weights[ell][start:end]
                key = basis, tuple(map(sorted(set(weight)).index, weight)), cut_fibers
                ells = groups.setdefault(key, []) if block.rows or cut_fibers else None
            if ells is not None:
                ells.append(ell)
        for key in groups:
            if key not in layouts:
                layouts[key] = len(layouts), _block_layout(block.rows, *key[1:])
        if groups:
            yield pairs, [(*layouts[key], ells) for key, ells in groups.items()]


@lru_cache(maxsize=1)  # the suite reads all cuts of one n, then moves on
def _theorem_a_cuts(n: int) -> tuple[TheoremAMasks, ...]:
    """Theorem A for every cut of n, entry ell for B_ell.

    Cut ell checks the w outside its monomial mask of
    :func:`mfl.quadideal._fiber_folds`.  The work runs on the
    :class:`mfl.permcomb.View` of the w that some cut checks (6864 of the
    362880 at n = 9): each mask is gathered onto it, and the answers are
    scattered back.  Per block, the view is split by which of the block's
    monomials survive, one column at a time (the monomial of variables i
    and j survives on the AND of their ``alive`` bitsets), once for all
    cuts.  Each distinct (layout of :func:`_shared_layouts`, alive mask)
    that a cut of the layout checks is then decided once per n, for every
    block and cut that shares it.
    """
    width = math.factorial(n)
    every = (1 << width) - 1
    checked = [every & ~fold.monomial for fold in _fiber_folds(n)]
    view = View.from_mask(width, reduce(or_, checked))
    alive = _alive_masks(n)
    va = [view.gather(alive[key]) for key in all_index_keys(n)]
    checks = [view.gather(mask) for mask in checked]
    failing = [0] * n
    partial = [0] * n
    decided: dict[tuple[int, int], bool | None] = {}  # (layout, alive mask) -> answer
    for pairs, shared in _shared_layouts(n):
        parts = {0: (1 << len(view.positions)) - 1}  # local alive mask -> the w that have it
        for c, (i, j) in enumerate(pairs):
            column = va[i] & va[j]
            refined = {}
            for mask, ws in parts.items():
                on = ws & column
                if on:
                    refined[mask | 1 << c] = on
                if on != ws:
                    refined[mask] = ws ^ on
            parts = refined
        for index, layout, ells in shared:
            seen = reduce(or_, (checks[ell] for ell in ells))
            fails = partly = 0
            for mask, ws in parts.items():
                if mask and ws & seen:
                    key = index, mask
                    if key not in decided:
                        decided[key] = _block_matches(layout, mask)
                    answer = decided[key]
                    if answer is None:
                        partly |= ws
                    if not answer:
                        fails |= ws
            for ell in ells:
                failing[ell] |= fails & checks[ell]
                partial[ell] |= partly & checks[ell]
    return tuple(
        TheoremAMasks(mask, view.scatter(fails), view.scatter(partly))
        for mask, fails, partly in zip(checked, failing, partial)
    )


def theorem_a_masks(n: int, ell: int, cap: int | None = None) -> TheoremAMasks:
    """Decide Theorem A for every monomial-free w in S_n at once; all cuts
    of n are decided together (:func:`_theorem_a_cuts`) and the last n is
    kept."""
    _check_la_cap(n, cap)
    # the la-cap, not the oracle bound, limits n
    _check_case(n, ell, bound=n)
    return _theorem_a_cuts(n)[ell]
