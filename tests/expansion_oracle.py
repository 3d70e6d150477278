"""The degree-two flag ideal by minor expansion: the reference for the
relation-built flag ideal in ``mfl.quadideal``.

Each degree-two monomial ``P_a P_b`` is expanded as a product of two minors
of the generic n x n matrix, and the ideal is the left kernel of those
expansions.  Two products share a grid monomial only if their column
multisets and size multisets agree, so the kernel is taken block by block.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Any, Hashable, Sequence

from mfl.exactla import EchelonBasis, _eliminate, make_primitive, rref
from mfl.permcomb import all_index_keys

Key = tuple[int, ...]


def left_kernel(rows: Sequence[dict[Hashable, int]]) -> list[tuple[int, ...]]:
    """Basis of {c : sum_i c_i row_i = 0}, as primitive integer tuples.

    Column ids may be arbitrary hashables; they are re-indexed internally.
    Tag columns tracking the row combination never serve as pivots.
    """
    col_index: dict[Any, int] = {}
    for row in rows:
        for col in row:
            if col not in col_index:
                col_index[col] = len(col_index)
    ncols = len(col_index)
    nrows = len(rows)

    basis = EchelonBasis()  # columns 0..ncols-1 are real, ncols.. are tags
    kernel: list[tuple[int, ...]] = []
    for i, row in enumerate(rows):
        work = {col_index[c]: v for c, v in row.items() if v != 0}
        work[ncols + i] = 1
        work = make_primitive(work)
        for pivot, basis_row in zip(basis.pivots, basis.rows):
            work = _eliminate(work, basis_row, pivot)
        real = {c: v for c, v in work.items() if c < ncols}
        if not real:
            tags = [0] * nrows
            for c, v in work.items():
                tags[c - ncols] = v
            vec = make_primitive({j: v for j, v in enumerate(tags) if v != 0})
            kernel.append(tuple(vec.get(j, 0) for j in range(nrows)))
        else:
            pivot = min(real)
            basis.rows = [_eliminate(r, work, pivot) for r in basis.rows]
            pos = 0
            while pos < len(basis.pivots) and basis.pivots[pos] < pivot:
                pos += 1
            basis.pivots.insert(pos, pivot)
            basis.rows.insert(pos, work)
    return kernel


def _parity(perm: Sequence[int]) -> int:
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


@lru_cache(maxsize=256)  # the (n, J) with n <= 7 number 240
def det_terms(n: int, members: Key) -> tuple[tuple[int, int], ...]:
    """Terms of the top-|J| minor on columns J: (packed grid monomial, sign).

    A grid monomial packs cell (r, c) into the 2-bit field at bit
    ``2 * (n * (r - 1) + c - 1)``.  A product of two minors uses a cell at
    most twice, so the fields never carry and multiplying two monomials is
    adding their packs.
    """
    s = len(members)
    terms = []
    for rows in itertools.permutations(range(s)):
        packed = sum(1 << 2 * (n * rows[k] + members[k] - 1) for k in range(s))
        terms.append((packed, _parity(rows)))
    return tuple(terms)


def product_row(n: int, a: Key, b: Key) -> dict[int, int]:
    """Expansion of the product of two minors into packed grid monomials."""
    out: dict[int, int] = {}
    for packed_a, sign_a in det_terms(n, a):
        for packed_b, sign_b in det_terms(n, b):
            key = packed_a + packed_b
            coeff = out.get(key, 0) + sign_a * sign_b
            if coeff:
                out[key] = coeff
            else:
                out.pop(key, None)
    return out


def flag_ideal_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The canonical rows of the degree-two flag ideal over the monomials
    ``combinations_with_replacement(all_index_keys(n), 2)``: per block, the
    reduced echelon basis of the left kernel of the expanded products."""
    monomials = list(itertools.combinations_with_replacement(all_index_keys(n), 2))
    groups: dict[tuple, list[int]] = {}
    for i, (a, b) in enumerate(monomials):
        key = (tuple(sorted(a + b)), tuple(sorted((len(a), len(b)))))
        groups.setdefault(key, []).append(i)
    rows = []
    for members in groups.values():
        kernel = left_kernel([product_row(n, *monomials[i]) for i in members])
        basis = rref({c: v for c, v in enumerate(vec) if v} for vec in kernel)
        rows.extend(
            tuple(sorted((members[c], v) for c, v in row.items()))
            for row in basis.rows
        )
    return tuple(sorted(rows))
