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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from mfl.permcomb import IndexSet

ID = "id"
SWAP12 = "swap12"


@dataclass(frozen=True, slots=True)
class BlockDiagonalMF:
    """The block diagonal matching field (1 ... ell | ell+1 ... n)."""

    n: int
    ell: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not 0 <= self.ell <= self.n - 1:
            raise ValueError(f"ell must be in 0..{self.n - 1}, got {self.ell}")

    @property
    def is_diagonal(self) -> bool:
        return self.ell == 0


@dataclass(frozen=True, slots=True)
class WeightMatrix:
    """The n x n weight matrix inducing B_ell; row 1 is zero, row 2 encodes
    the block cut, rows r >= 3 are (r-1)(n+1-j)."""

    entries: tuple[tuple[int, ...], ...]

    def row(self, r: int) -> tuple[int, ...]:
        """1-based row access."""
        return self.entries[r - 1]

    def __getitem__(self, cell: tuple[int, int]) -> int:
        r, j = cell
        return self.entries[r - 1][j - 1]

    def to_csv(self) -> str:
        return "\n".join(",".join(str(v) for v in row) for row in self.entries) + "\n"


@dataclass(frozen=True)
class GridMonomial:
    """A signed monomial in the grid variables x_{i,j}.

    ``exponents`` maps cells (row, column) to positive exponents, stored as a
    sorted tuple so instances hash and compare by value.
    """

    exponents: tuple[tuple[tuple[int, int], int], ...]
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    @classmethod
    def one(cls) -> "GridMonomial":
        return cls((), 1)

    @classmethod
    def from_cells(cls, cells: Iterable[tuple[int, int]], sign: int) -> "GridMonomial":
        counts: dict[tuple[int, int], int] = {}
        for cell in cells:
            counts[cell] = counts.get(cell, 0) + 1
        return cls(tuple(sorted(counts.items())), sign)

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exponents)

    def cells(self) -> tuple[tuple[int, int], ...]:
        """The cell multiset, flattened and sorted."""
        out: list[tuple[int, int]] = []
        for cell, e in self.exponents:
            out.extend([cell] * e)
        return tuple(out)

    def __mul__(self, other: "GridMonomial") -> "GridMonomial":
        return GridMonomial.from_cells(self.cells() + other.cells(), self.sign * other.sign)

    def factors(self) -> list[str]:
        return [f"x[{i}][{j}]^{e}" for (i, j), e in self.exponents]

    def to_json_obj(self) -> dict:
        return {"sign": self.sign, "factors": self.factors()}


# ---------------------------------------------------------------------------
# Placement and display


def _swap_flag(ell: int, members: Sequence[int], rule: str = "corrected") -> bool:
    if len(members) < 2:
        return False
    low = sum(1 for m in members if m <= ell)
    if rule == "corrected":
        return low == 1
    if rule == "literal":
        return low <= 1
    raise ValueError(f"unknown rule {rule!r}")


def column_permutation(mf: BlockDiagonalMF, j: IndexSet, rule: str = "corrected") -> tuple[str, int]:
    """Column permutation tag and sign for the variable P_J.

    Returns ``("swap12", -1)`` when rows 1 and 2 are transposed and
    ``("id", +1)`` otherwise.

    >>> column_permutation(BlockDiagonalMF(4, 2), IndexSet((1, 3), 4))
    ('swap12', -1)
    >>> column_permutation(BlockDiagonalMF(4, 2), IndexSet((3, 4), 4))
    ('id', 1)
    """
    if _swap_flag(mf.ell, j.members, rule):
        return SWAP12, -1
    return ID, 1


def column_display(mf: BlockDiagonalMF, j: IndexSet) -> tuple[int, ...]:
    """Entries of the column of P_J top to bottom, in matching field order.

    >>> column_display(BlockDiagonalMF(4, 2), IndexSet((1, 3, 4), 4))
    (3, 1, 4)
    """
    return display_key(mf.n, mf.ell, j.members)


def display_key(n: int, ell: int, members: tuple[int, ...]) -> tuple[int, ...]:
    """Tuple-level :func:`column_display`."""
    if _swap_flag(ell, members):
        return (members[1], members[0]) + members[2:]
    return members


# ---------------------------------------------------------------------------
# Weight matrix and weights


@lru_cache(maxsize=64)  # the (n, ell) with n <= 8 number 35
def _weight_matrix_entries(n: int, ell: int) -> tuple[tuple[int, ...], ...]:
    rows = [tuple([0] * n)]
    row2 = [ell + 1 - j if j <= ell else n + ell + 1 - j for j in range(1, n + 1)]
    if n >= 2:
        rows.append(tuple(row2))
    for r in range(3, n + 1):
        rows.append(tuple((r - 1) * (n + 1 - j) for j in range(1, n + 1)))
    return tuple(rows)


def weight_matrix(mf: BlockDiagonalMF) -> WeightMatrix:
    """The weight matrix M_ell.

    >>> weight_matrix(BlockDiagonalMF(4, 2)).entries
    ((0, 0, 0, 0), (2, 1, 4, 3), (8, 6, 4, 2), (12, 9, 6, 3))
    """
    return WeightMatrix(_weight_matrix_entries(mf.n, mf.ell))


def plucker_weight(mf: BlockDiagonalMF, j: IndexSet) -> int:
    """Closed-form weight of P_J under M_ell.

    Three cases by the size of ``J meet {1..ell}`` (zero, one, at least two);
    singletons have weight 0.  Agrees with :func:`plucker_weight_oracle`.
    """
    return weight_key(mf.n, mf.ell, j.members)


def weight_key(n: int, ell: int, members: tuple[int, ...]) -> int:
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


def plucker_weight_oracle(mf: BlockDiagonalMF, j: IndexSet) -> int:
    """Minimum weight over all |J|! placements of J into rows 1..|J|."""
    weights = _placement_weights(mf, j.members)
    return min(weights.values())


def _placement_weights(
    mf: BlockDiagonalMF, members: tuple[int, ...]
) -> dict[tuple[int, ...], int]:
    """Weight of every placement; keys are row assignments (rows[k] holds
    the row given to the k-th smallest element)."""
    matrix = _weight_matrix_entries(mf.n, mf.ell)
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


@dataclass(frozen=True)
class CoherenceFailure:
    members: tuple[int, ...]
    expected_rows: tuple[int, ...]
    minimal_rows: tuple[tuple[int, ...], ...]
    tie: bool


@dataclass(frozen=True)
class CoherenceReport:
    n: int
    ell: int
    rule: str
    checked: int
    failures: tuple[CoherenceFailure, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.failures

    def first_failure(self) -> CoherenceFailure | None:
        return self.failures[0] if self.failures else None


def verify_coherence(mf: BlockDiagonalMF, rule: str = "corrected") -> CoherenceReport:
    """Check that M_ell induces the placement rule.

    For every index set J, enumerate all |J|! placements and assert that the
    minimum weight is attained uniquely, at the placement the rule dictates.
    Ties and wrong minima are reported as failures, not raised.
    """
    failures = []
    checked = 0
    for size in range(1, mf.n):
        for members in itertools.combinations(range(1, mf.n + 1), size):
            checked += 1
            weights = _placement_weights(mf, members)
            best = min(weights.values())
            argmin = tuple(sorted(rows for rows, v in weights.items() if v == best))
            expected = _rule_placement(mf.ell, members, rule)
            if len(argmin) != 1 or argmin[0] != expected:
                failures.append(
                    CoherenceFailure(
                        members=members,
                        expected_rows=expected,
                        minimal_rows=argmin,
                        tie=len(argmin) > 1,
                    )
                )
    return CoherenceReport(mf.n, mf.ell, rule, checked, tuple(failures))


# ---------------------------------------------------------------------------
# The signed monomial map


@lru_cache(maxsize=4096)  # the (n, ell, J) with n <= 8 number 3514
def variable_image_key(
    n: int, ell: int, members: tuple[int, ...]
) -> tuple[tuple[tuple[int, int], ...], int]:
    """(sorted cell tuple, sign) of the image of P_J; tuple-level hot path."""
    disp = display_key(n, ell, members)
    cells = tuple(sorted((row, col) for row, col in enumerate(disp, start=1)))
    sign = -1 if _swap_flag(ell, members) else 1
    return cells, sign


def grid_image(mf: BlockDiagonalMF, monomial: Iterable[IndexSet]) -> GridMonomial:
    """Image of a product of Pluecker variables under the signed monomial map.

    Each P_J maps to sgn(B_ell(J)) times the product of x_{row, value} over
    its displayed column; the map extends multiplicatively.  The empty
    product maps to the unit.

    >>> mf = BlockDiagonalMF(4, 0)
    >>> g = grid_image(mf, [IndexSet((1, 2, 4), 4), IndexSet((2, 3), 4)])
    >>> g.factors(), g.sign
    (['x[1][1]^1', 'x[1][2]^1', 'x[2][2]^1', 'x[2][3]^1', 'x[3][4]^1'], 1)
    """
    cells: list[tuple[int, int]] = []
    sign = 1
    for j in monomial:
        if j.n != mf.n:
            raise ValueError(f"ambient size mismatch: {j.n} != {mf.n}")
        c, s = variable_image_key(mf.n, mf.ell, j.members)
        cells.extend(c)
        sign *= s
    return GridMonomial.from_cells(cells, sign)
