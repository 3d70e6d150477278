"""Exact integer linear algebra over sparse rows.

Rows are dicts mapping column ids (ints) to nonzero integers.  Elimination is
fraction-free: rows are combined by cross-multiplication and kept primitive
(content divided out, leading coefficient positive), so the reduced echelon
basis is a canonical representative of the row span over the rationals.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable

Row = dict[int, int]


def make_primitive(row: Row) -> Row:
    """Divide by the content and make the smallest-column coefficient positive."""
    row = {c: v for c, v in row.items() if v != 0}
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
    lead = min(row)
    if row[lead] < 0:
        g = -g
    return {c: v // g for c, v in row.items()}


def _eliminate(target: Row, pivot_row: Row, pivot_col: int) -> Row:
    c = target.get(pivot_col, 0)
    if c == 0:
        return target
    p = pivot_row[pivot_col]
    out = {}
    for col, v in target.items():
        out[col] = p * v
    for col, v in pivot_row.items():
        out[col] = out.get(col, 0) - c * v
    return make_primitive(out)


class EchelonBasis:
    """Incrementally built reduced row echelon basis.

    ``col_pos`` orders the columns for pivot selection (smaller position is
    eliminated first); identity order by default.
    """

    def __init__(self, col_pos: dict[int, int] | None = None):
        self.col_pos = col_pos
        self.pivots: list[int] = []
        self.rows: list[Row] = []

    def _pos(self, col: int) -> int:
        return col if self.col_pos is None else self.col_pos[col]

    def reduce(self, row: Row) -> Row:
        """Reduce a row against the basis without inserting it."""
        row = make_primitive(row)
        for pivot, basis_row in zip(self.pivots, self.rows):
            row = _eliminate(row, basis_row, pivot)
        return row

    def insert(self, row: Row) -> bool:
        """Reduce and insert; returns True if the row enlarged the span."""
        row = self.reduce(row)
        if not row:
            return False
        pivot = min(row, key=self._pos)
        self.rows = [_eliminate(r, row, pivot) for r in self.rows]
        pos = 0
        while pos < len(self.pivots) and self._pos(self.pivots[pos]) < self._pos(pivot):
            pos += 1
        self.pivots.insert(pos, pivot)
        self.rows.insert(pos, row)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, row: Row) -> bool:
        return not self.reduce(row)

    def canonical(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Hashable canonical form: rows sorted by pivot position."""
        return tuple(tuple(sorted(r.items())) for r in self.rows)


def rref(rows: Iterable[Row], col_pos: dict[int, int] | None = None) -> EchelonBasis:
    basis = EchelonBasis(col_pos)
    for row in rows:
        basis.insert(row)
    return basis

