"""The global degree-two reference for Theorem A: the initial forms of the
whole flag ideal restricted to X(w), and the span of the surviving fiber
binomials in the same coordinates.  ``flagideal.theorem_a_masks`` decides
the same equality block by block and over all of S_n at once; this path
runs one global elimination per w, in the coordinates of the whole
degree-two flag ideal (:func:`degree2_flag_ideal`).

``reference_flag_ideal`` builds the blocks of ``flagideal._flag_ideal``
with one ``rref`` per block, where the module reduces each distinct list
of local relations once."""

import itertools
from typing import Iterable, NamedTuple

from mfl import exactla
from mfl.matchfield import weight_key
from mfl.permcomb import all_index_keys, check_permutation, vanishing_keys
from mfl.flagideal import _check_la_cap, _flag_ideal, _FlagBlock
from mfl.quadideal import MonoKey, _degree_blocks, _key_fibers


def reference_flag_ideal(n: int) -> tuple[_FlagBlock, ...]:
    """``flagideal._flag_ideal(n)`` with each block's relations reduced on
    their own, one ``exactla.rref`` per block: the incidence relations are
    written onto the local columns as the module writes them."""
    variables = all_index_keys(n)
    size = len(variables)
    index = {sum(1 << v for v in key): i for i, key in enumerate(variables)}
    blocks = _degree_blocks(n)
    place = {  # monomial i * size + j -> (block, local column)
        i * size + j: (b, c)
        for b, pairs in enumerate(blocks) for c, (i, j) in enumerate(pairs)
    }
    relations: list[list[exactla.Row]] = [[] for _ in blocks]
    for p in range(1, n):
        for q in range(p, n):
            for lower in itertools.combinations(range(1, n + 1), p - 1):
                low = sum(1 << v for v in lower)
                for upper in itertools.combinations(range(1, n + 1), q + 1):
                    up = sum(1 << v for v in upper)
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
    return tuple(
        _FlagBlock(
            # (i, j) is monomial i * size - i * (i - 1) / 2 + j - i
            tuple(i * size - i * (i - 1) // 2 + j - i for i, j in pairs),
            tuple(exactla.rref(rows).rows),
        )
        for pairs, rows in zip(blocks, relations)
    )


class DegreeTwoSpace(NamedTuple):
    """A subspace of the span of degree-two Pluecker monomials.

    ``monomials`` fixes the coordinate order; ``rows`` is the canonical
    reduced echelon basis with primitive integer entries (column index,
    coefficient).
    """

    monomials: tuple[MonoKey, ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def rank(self) -> int:
        return len(self.rows)


def degree2_flag_ideal(n: int, cap: int | None = None) -> DegreeTwoSpace:
    """Degree-two piece of the full flag ideal over every monomial of
    ``combinations_with_replacement(all_index_keys(n), 2)``: the sorted
    union of the block bases of ``flagideal._flag_ideal``, each row mapped
    from local to global columns.  Refused past the linear-algebra cap, as
    ``mfl --la-cap`` refuses the Theorem A suite."""
    _check_la_cap(n, cap)
    monomials = tuple(itertools.combinations_with_replacement(all_index_keys(n), 2))
    rows = sorted(
        tuple(sorted((block.members[c], v) for c, v in row.items()))
        for block in _flag_ideal(n)
        for row in block.rows
    )
    return DegreeTwoSpace(monomials, tuple(rows))


def span_equal(rows_a: Iterable[exactla.Row], rows_b: Iterable[exactla.Row],
               col_pos: dict[int, int] | None = None) -> bool:
    return (exactla.rref(rows_a, col_pos).canonical()
            == exactla.rref(rows_b, col_pos).canonical())


def initial_degree2(
    n: int, ell: int, w: tuple[int, ...], cap: int | None = None
) -> DegreeTwoSpace:
    """Degree-two span of initial forms of the Schubert ideal of X(w).

    Vanishing variables are set to zero in the flag ideal (column deletion
    plus re-reduction); columns are then ordered by total weight and each
    echelon row is truncated to its lowest-weight stratum.  Coordinates of
    the result are the surviving monomials in increasing (weight, key) order.
    """
    check_permutation(w, n)
    flag = degree2_flag_ideal(n, cap)
    vanset = vanishing_keys(w)

    def alive(mono: MonoKey) -> bool:
        return mono[0] not in vanset and mono[1] not in vanset

    surviving = [i for i, m in enumerate(flag.monomials) if alive(m)]
    weights = {
        i: weight_key(n, ell, flag.monomials[i][0]) + weight_key(n, ell, flag.monomials[i][1])
        for i in surviving
    }
    order = sorted(surviving, key=lambda i: (weights[i], flag.monomials[i]))
    col_pos = {i: p for p, i in enumerate(order)}

    projected = []
    for row in flag.rows:
        proj = {c: v for c, v in row if c in col_pos}
        if proj:
            projected.append(proj)
    schubert = exactla.rref(projected, col_pos)
    initial_rows = []
    for pivot, row in zip(schubert.pivots, schubert.rows):
        stratum = weights[pivot]
        initial_rows.append({c: v for c, v in row.items() if weights[c] == stratum})
    basis = exactla.rref(initial_rows, col_pos)
    new_monos = tuple(flag.monomials[i] for i in order)
    rows = tuple(
        tuple(sorted((col_pos[c], v) for c, v in row.items()))
        for row in basis.rows
    )
    return DegreeTwoSpace(new_monos, tuple(sorted(rows)))


def surviving_binomial_space(
    n: int, ell: int, w: tuple[int, ...], coords: DegreeTwoSpace
) -> DegreeTwoSpace:
    """Span of the surviving fiber binomials, in the coordinates of ``coords``."""
    check_permutation(w, n)
    col_of = {m: i for i, m in enumerate(coords.monomials)}
    vanset = vanishing_keys(w)
    rows = []
    for fiber in _key_fibers(n, ell):
        survivors = [(m, s) for m, s in fiber if vanset.isdisjoint(m)]
        for (m1, s1), (m2, s2) in zip(survivors, survivors[1:]):
            rows.append({col_of[m1]: 1, col_of[m2]: -s1 * s2})
    basis = exactla.rref(rows)
    return DegreeTwoSpace(coords.monomials, basis.canonical())
