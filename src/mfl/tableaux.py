"""Two-column tableaux, the matching-field rearrangement map, and standardness.

A tableau is the tuple of its columns, each a sorted member tuple, with
weakly decreasing sizes; it is semi-standard when its rows weakly increase
(:func:`check_tableau`).  Its matching-field tableau has the same columns,
each shown in the order B_ell dictates
(:func:`mfl.matchfield.display_key`).  Two matching-field tableaux of equal
shape are row-wise equal when every row carries the same multiset of
entries, which is the same as having equal images under the monomial map.
Row classes are therefore read off the monomial map's int image code
(:func:`mfl.matchfield.image_code`), the code the degree-two fibers of
:mod:`mfl.quadideal` are grouped by.

The rearrangement map sends a two-column semi-standard tableau to a
matching-field tableau and is a bijection across row classes.  Standardness
for X(w) is decided by the minimum defining chain: the tableau is standard
iff the chain's last permutation is Bruhat-below w.  For every permutation
in the pattern family the degree-two standard monomial count identity holds
in the chain form,

    #two-column semi-standard tableaux standard for X(w)
        = #row classes of surviving degree-two monomials,

and for 312-free w (where standardness coincides with column domination)
the map moreover preserves the columns-below-w condition in both
directions.  :func:`verify_bijection` checks all of this exhaustively; see
its docstring for why the column-form statements must exclude the
pattern-family members that contain a 312 pattern.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from functools import lru_cache, reduce
from operator import gt, or_, xor
from typing import Iterator, NamedTuple

from mfl.matchfield import image_code
from mfl.permcomb import (
    _alive_masks,
    all_index_keys,
    bruhat_minimum,
    bruhat_up_set,
    check_permutation,
    permutation_index,
    prefix_set_mask,
    vanishing_keys,
    word_text,
)
from mfl.quadideal import CapabilityError
from mfl.theoremsets import family_masks

Key = tuple[int, ...]
Columns = tuple[Key, ...]


def check_tableau(n: int, columns: Columns) -> None:
    """Raise ValueError unless ``columns`` is a semi-standard tableau over
    [n]: strictly increasing proper non-empty subsets of [n] of weakly
    decreasing size whose rows weakly increase; the per-tableau entry points
    call it.

    >>> check_tableau(4, ((1, 2, 4), (2, 3)))
    """
    if not columns:
        raise ValueError("tableau needs at least one column")
    sizes = [len(c) for c in columns]
    if any(a < b for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"column sizes must weakly decrease: {sizes}")
    for col in columns:
        if not (1 <= len(col) <= n - 1 and 1 <= min(col) and max(col) <= n):
            raise ValueError(f"column must be a proper non-empty subset of [{n}]: {col}")
        if any(a >= b for a, b in zip(col, col[1:])):
            raise ValueError(f"column must be strictly increasing: {col}")
    for left, right in zip(columns, columns[1:]):
        if any(l > r for l, r in zip(left, right)):
            raise ValueError(f"rows must weakly increase: {left} | {right}")


# ---------------------------------------------------------------------------
# Enumeration


def enumerate_ssyt2(n: int, w: tuple[int, ...] | None = None) -> Iterator[Columns]:
    """The two-column semi-standard tableaux over [n], lazily, ordered by
    (left size, right size, left, right); optionally only those whose
    columns are Gale-below the prefixes of w.

    >>> sum(1 for _ in enumerate_ssyt2(3, (3, 2, 1)))
    20
    """
    if w is not None:
        check_permutation(w, n)
    vanset = frozenset() if w is None else vanishing_keys(w)
    subsets_by_size = [tuple(itertools.combinations(range(1, n + 1), k)) for k in range(n)]
    return (
        (left, right)
        for t in range(1, n)
        for s in range(1, t + 1)
        for left in subsets_by_size[t]
        if left not in vanset
        for right in subsets_by_size[s]
        if right not in vanset and all(l <= r for l, r in zip(left, right))
    )


# ---------------------------------------------------------------------------
# The rearrangement map


def ssyt_to_matching_field(columns: Columns, ell: int) -> Columns:
    """Rearrange a two-column semi-standard tableau for the field B_ell and
    return the columns of its matching-field tableau.

    Entries move only within the first two rows.  With L = {1..ell} low and
    the rest high, writing the columns I = {i_1 < i_2 < ...} and
    J = {j_1 < ...}:

    - single-row second column: if i_1 is low and i_2, j_1 high, the columns
      become ({i_1, j_1} + rest, {i_2}) when i_2 < j_1 (and j_1 < i_3 if
      present) or ({j_1, i_2} + rest, {i_1}) when j_1 < i_2;
    - two-row second column: when i_1 is low, j_2 high, i_2 and j_1 on the
      same side of the cut, and j_1 < i_2, the first two rows (i_1, j_1) /
      (i_2, j_2) are replaced by (j_1, j_2) / (i_2, i_1);
    - in every other case the column contents are unchanged and only the
      display order moves.

    >>> ssyt_to_matching_field(((1, 2, 4), (3,)), 1)
    ((1, 3, 4), (2,))
    """
    if len(columns) != 2 or len(columns[0]) < len(columns[1]) or any(map(gt, *columns)):
        raise ValueError(f"expected a two-column semi-standard tableau: {columns}")
    return _rearrange(columns, ell)


def _rearrange(columns: Columns, ell: int) -> Columns:
    """:func:`ssyt_to_matching_field` without validating ``columns``; it
    returns ``columns`` itself when the contents do not move."""
    left, right = columns
    if len(right) == 1 and len(left) >= 2:
        i1, i2 = left[0], left[1]
        j1 = right[0]
        if i1 <= ell < i2 and ell < j1:
            if i2 < j1 and (len(left) < 3 or j1 < left[2]):
                return tuple(sorted((i1, j1) + left[2:])), (i2,)
            if j1 < i2:
                return tuple(sorted((j1,) + left[1:])), (i1,)
    elif len(right) >= 2:
        i1, i2 = left[0], left[1]
        j1, j2 = right[0], right[1]
        if i1 <= ell < j2 and (i2 <= ell) == (j1 <= ell) and j1 < i2:
            return tuple(sorted((j1, i2) + left[2:])), tuple(sorted((i1, j2) + right[2:]))
    return columns


# ---------------------------------------------------------------------------
# Defining chains and standardness


def _block_permutation(n: int, *blocks: Key) -> tuple[int, ...]:
    """The increasing ``blocks`` in turn, then the rest of [n] in increasing
    order."""
    used = sum(blocks, ())
    return used + tuple([v for v in range(1, n + 1) if v not in used])


def grassmannian_permutation(members: Key, n: int) -> tuple[int, ...]:
    """(I, [n] minus I), the minimal permutation with prefix set I."""
    return _block_permutation(n, members)


def min_defining_chain2(n: int, columns: Columns) -> tuple[tuple[int, ...], ...]:
    """Minimum defining chain of a semi-standard tableau with at most two
    columns, as its tuple of permutations.

    The first permutation is v_1 = (I, rest) for the left column I.  For a
    right column J, take x from n down to 1 keeping
    ``owed += (x in I) - (x in J)``, and put x in the tail, decrementing
    ``owed``, whenever ``owed > 0``; the second permutation is (J, tail, rest).
    Why: v_1 descends only at t = |I|, so a w >= v_1 with prefix set J at
    s = |J| has its t-prefix set Gale-above I.  The t-sets that contain J
    and lie Gale-above I are closed under the entrywise minimum; the pass
    builds their least member M, and M - J lies in I - J.  So (J, M - J,
    rest) is one of the paper's candidates, descends only at s and t, and
    at both lies below every such w: it is the least candidate and the
    exhaustive minimum.

    >>> min_defining_chain2(4, ((1, 2, 4), (3,)))
    ((1, 2, 4, 3), (3, 1, 4, 2))
    >>> min_defining_chain2(6, ((1, 3, 4), (2, 5)))
    ((1, 3, 4, 2, 5, 6), (2, 5, 3, 1, 4, 6))
    """
    if len(columns) > 2:
        raise CapabilityError("defining chains are implemented for <= 2 columns")
    check_tableau(n, columns)
    return _min_chain2(n, columns)


def _min_chain2(n: int, columns: Columns) -> tuple[tuple[int, ...], ...]:
    """:func:`min_defining_chain2` without validating ``columns``, for the
    tableaux :func:`enumerate_ssyt2` yields."""
    left = columns[0]
    v1 = grassmannian_permutation(left, n)
    if len(columns) == 1:
        return (v1,)
    right = columns[1]
    owed, tail = 0, []
    for x in range(n, 0, -1):
        owed += (x in left) - (x in right)
        if owed > 0:
            owed -= 1
            tail.append(x)
    return v1, _block_permutation(n, right, tuple(reversed(tail)))


def min_defining_chain2_exhaustive(n: int, columns: Columns) -> tuple[tuple[int, ...], ...]:
    """Test oracle: minimize over every permutation with the right prefix.

    Decided on bitsets over S_n: the candidates are the w with
    {w_1, ..., w_|J|} = J for the right column J, which
    :func:`mfl.permcomb.prefix_set_mask` reads off the survival table, that
    lie Bruhat-above the first permutation v_1.
    :func:`mfl.permcomb.bruhat_minimum` checks whether their lowest bit, the
    only possible least element, is below all of them.  Any pair of columns
    is accepted; one without a unique minimum raises ``ValueError``.

    >>> min_defining_chain2_exhaustive(4, ((1, 2, 4), (3,)))
    ((1, 2, 4, 3), (3, 1, 4, 2))
    """
    if len(columns) > 2:
        raise CapabilityError("defining chains are implemented for <= 2 columns")
    v1 = grassmannian_permutation(columns[0], n)
    if len(columns) == 1:
        return (v1,)
    valid = prefix_set_mask(n, columns[1]) & bruhat_up_set(v1)
    minimum = bruhat_minimum(n, valid)
    if minimum is None:
        raise ValueError(f"no unique minimum defining chain for {columns}")
    return v1, minimum


# ---------------------------------------------------------------------------
# Exhaustive verification


class BijectionReport(NamedTuple):
    n: int
    ell: int
    w: str
    in_pattern: bool
    checks: tuple[tuple[str, bool], ...]
    standard_count: int | None
    column_count: int | None
    row_class_count: int | None
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)


class _BijectionTable(NamedTuple):
    """What :func:`verify_bijection` needs of one (n, ell), built once.

    Every mask is a bitset over S_n in ``itertools.permutations`` order.
    ``checks`` and ``failures`` hold the two checks that do not depend on
    w.  ``classes`` is a bit-sliced counter (:func:`_add`) of the row
    classes of monomials with some member surviving; the tableau counts do
    not depend on the cut and are kept per n (:class:`_Level`).  A row
    class is read off the monomial map's int image code
    (:func:`mfl.matchfield.image_code`), the code the fibers of
    :mod:`mfl.quadideal` share: two matching-field tableaux are row-wise
    equal exactly when their monomials have equal codes.  The three per-w
    checks list, in message order, what a failure message names (tableau
    columns or a monomial pair) with the w where it fails; entries that
    never fail are left out.  The build groups tableaux and pairs by code,
    as labels, and builds each class's masks only in its turn.
    """

    checks: tuple[tuple[str, bool], ...]
    failures: tuple[str, ...]
    preimage_failing: tuple[tuple[tuple, int], ...]
    image_failing: tuple[tuple[tuple, int], ...]
    surjective_failing: tuple[tuple[tuple, int], ...]
    classes: tuple[int, ...]


def _add(planes: list[int], carry: int, times: int = 1) -> None:
    """Add ``times`` copies of the bitset ``carry`` to the bit-sliced counter
    ``planes`` in place: bit i of plane k is bit k of the number of bitsets
    added with bit i set.  One copy ripples in from plane 0; for more, each
    set bit k of ``times`` adds one copy to the planes from k on.  The top
    plane is never left zero."""
    if times != 1:
        for k in range(times.bit_length()):
            if times >> k & 1 and carry:
                planes.extend([0] * (k - len(planes)))
                tail = planes[k:]
                _add(tail, carry)
                planes[k:] = tail
        return
    for k, plane in enumerate(planes):
        planes[k] = plane ^ carry
        carry &= plane
        if not carry:
            return
    if carry:
        planes.append(carry)


def _bit_count(planes: tuple[int, ...], i: int) -> int:
    """Count at bit i of a bit-sliced counter."""
    return sum((plane >> i & 1) << k for k, plane in enumerate(planes))


class _Level(NamedTuple):
    """What the tableaux layer needs of one n (:func:`_level`): the tableaux
    of :func:`enumerate_ssyt2` in order, bit-sliced counters over S_n of
    those below w and of those standard for X(w), the tableaux whose chain
    differs from :func:`min_defining_chain2_exhaustive`, and each tableau
    with the 312-free w where standardness differs from domination, if any.
    """

    tableaux: tuple[Columns, ...]
    below: tuple[int, ...]
    standard: tuple[int, ...]
    chain_failing: tuple[Columns, ...]
    domination_failing: tuple[tuple[Columns, int], ...]


@lru_cache(maxsize=8)  # the tableaux suite reads n = 3..8
def _level(n: int) -> _Level:
    """One pass over the tableaux of n builds each minimum chain once,
    without re-validating the tableaux it enumerates, adds each below-w
    bitset to its counter and groups the tableaux by chain end.  Each
    distinct end's Bruhat up-set, the w its tableaux are standard for, is
    then built once, counted with the number of its tableaux, compared with
    their below-w bitsets, and dropped.

    >>> _bit_count(_level(3).standard, 5)  # w = 321
    20
    """
    alive = _alive_masks(n)
    free_312 = family_masks(n, 0).free_312
    tableaux, below, chain_failing = [], [], []
    by_end: defaultdict[tuple[int, ...], list[Columns]] = defaultdict(list)
    for t in enumerate_ssyt2(n):
        tableaux.append(t)
        chain = _min_chain2(n, t)
        if chain != min_defining_chain2_exhaustive(n, t):
            chain_failing.append(t)
        by_end[chain[-1]].append(t)
        _add(below, alive[t[0]] & alive[t[1]])
    standard, domination_failing = [], []
    for end, members in by_end.items():
        up_set = bruhat_up_set(end)
        _add(standard, up_set, len(members))
        for t in members:
            if differs := (up_set ^ (alive[t[0]] & alive[t[1]])) & free_312:
                domination_failing.append((t, differs))
    if domination_failing:  # back to enumeration order
        position = {t: i for i, t in enumerate(tableaux)}
        domination_failing.sort(key=lambda item: position[item[0]])
    return _Level(tuple(tableaux), tuple(below), tuple(standard), tuple(chain_failing),
                  tuple(domination_failing))


@lru_cache(maxsize=1)  # the tableaux suite is done with a cut before the next
def _bijection_table(n: int, ell: int) -> _BijectionTable:
    alive = _alive_masks(n)
    code = {key: image_code(n, ell, key) for key in all_index_keys(n)}
    keys = sorted(code, key=lambda k: (-len(k), k))
    pairs = list(itertools.combinations_with_replacement(keys, 2))
    # image code -> its tableaux and the indices of its monomial pairs
    groups: defaultdict[int, tuple[list[Columns], list[int]]] = defaultdict(lambda: ([], []))
    failures, preimage, image = [], [], []
    for t in _level(n).tableaux:
        image_t = _rearrange(t, ell)
        (a, b), (c, d) = t, image_t
        tableaux = groups[code[c] + code[d]][0]
        if tableaux:
            failures.append(f"images of {tableaux[0]} and {t} are row-equal")
        tableaux.append(t)
        if image_t == t:
            continue  # equal masks fail neither below-w check
        t_below, image_below = alive[a] & alive[b], alive[c] & alive[d]
        if missed := image_below & ~t_below:
            preimage.append((t, missed))
        if missed := t_below & ~image_below:
            image.append((t, missed))
    injective, imaged = not failures, len(groups)
    for p, (a, b) in enumerate(pairs):
        tableaux, indices = groups[code[a] + code[b]]
        if not tableaux:
            failures.append(f"monomial {(a, b)} misses every image row class")
        indices.append(p)
    # one class at a time: the w where a below-w tableau or a pair has its code
    surviving, classes = [], []
    for tableaux, indices in groups.values():
        covered = members = 0
        for a, b in tableaux:
            covered |= alive[a] & alive[b]
        for p in indices:
            a, b = pairs[p]
            bits = alive[a] & alive[b]
            members |= bits
            if missed := bits & ~covered:
                surviving.append((p, missed))
        _add(classes, members)
    return _BijectionTable(
        checks=(("injective", injective), ("surjective", len(groups) == imaged)),
        failures=tuple(failures),
        preimage_failing=tuple(preimage),
        image_failing=tuple(image),
        surjective_failing=tuple((pairs[p], missed) for p, missed in sorted(surviving)),
        classes=tuple(classes),
    )


def _counters_differ(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Where two bit-sliced counters differ: the OR over k of a[k] ^ b[k].

    >>> a, b = [], []; _add(a, 0b011); _add(a, 0b110); _add(b, 0b111)
    >>> bin(_counters_differ(a, b))
    '0b10'
    """
    planes = itertools.zip_longest(a, b, fillvalue=0)
    return reduce(or_, itertools.starmap(xor, planes), 0)


def _any_failing(items: tuple[tuple[tuple, int], ...]) -> int:
    return reduce(or_, (mask for _, mask in items), 0)


def _check_masks(n: int, ell: int) -> tuple[tuple[str, int, int], ...]:
    """The checks of :func:`verify_bijection` in report order, each as its
    name, the w it applies to and the w where it fails, bitsets over S_n;
    counts are compared by XOR of counter planes (:func:`_counters_differ`).

    >>> [name for name, applies, fails in _check_masks(3, 1) if applies & fails]
    ['preimage_below_w']
    """
    table = _bijection_table(n, ell)
    level = _level(n)
    families = family_masks(n, ell)
    everywhere = -1  # every bit set
    column_form = families.pattern & families.free_312
    return (
        *((name, everywhere, 0 if passed else everywhere) for name, passed in table.checks),
        ("preimage_below_w", everywhere, _any_failing(table.preimage_failing)),
        ("standard_count_identity", families.pattern,
         _counters_differ(level.standard, table.classes)),
        ("image_below_w", column_form, _any_failing(table.image_failing)),
        ("surjective_below_w", column_form, _any_failing(table.surjective_failing)),
        ("column_count_identity", column_form, _counters_differ(level.below, table.classes)),
    )


def bijection_failing_mask(n: int, ell: int) -> int:
    """The pattern-family w of S_n where :func:`verify_bijection` is not ok,
    as a bitset in ``itertools.permutations`` order, read off the checks of
    (n, ell) (:func:`_check_masks`) with no per-w report.

    >>> bijection_failing_mask(4, 2)
    0
    """
    failing = reduce(or_, (applies & fails for _, applies, fails in _check_masks(n, ell)))
    return family_masks(n, ell).pattern & failing


def _failing(items: tuple[tuple[tuple, int], ...], i: int) -> list[tuple]:
    return [label for label, mask in items if mask >> i & 1]


def verify_bijection(n: int, ell: int, w: tuple[int, ...]) -> BijectionReport:
    """Exhaustively check the rearrangement map for (n, ell, w).

    Always checked: images of distinct semi-standard tableaux are never
    row-wise equal, every two-column matching-field monomial is row-wise
    equal to some image, and the preimage of a below-w image is below w.

    When w is in the pattern family, the degree-two standard monomial count
    identity is checked in its chain form: the number of two-column
    semi-standard tableaux standard for X(w) equals the number of row
    classes of surviving monomials.

    When w is moreover 312-free, standardness coincides with column
    domination and the stronger column-form clauses are checked too: images
    of below-w tableaux stay below w, every surviving row class contains the
    image of a below-w tableau, and the below-w tableau count equals the
    class count.  For pattern-family members containing a 312 pattern the
    column-form clauses are genuinely false (already at n = 3, ell = 1,
    w = 312 the below-w tableau [13|2] maps to [23|1] with a vanishing
    column, leaving 15 below-w tableaux against 14 row classes), so they are
    reported as data but not required.

    The table of (n, ell) (:class:`_BijectionTable`) and the record of n
    (:class:`_Level`) hold every w-dependent fact as a bitset over S_n:
    "below w" is the AND of the columns' ``alive`` bitsets
    (:func:`mfl.permcomb._alive_masks`), "standard for X(w)" the Bruhat
    up-set of the chain end, and each count a bit-sliced counter, so per w
    the report reads bit :func:`mfl.permcomb.permutation_index` of a dozen
    or so counter planes for each count.  Which checks apply and which fail
    is read at that bit off :func:`_check_masks`, the masks the tableaux
    suite reads for every w at once (:func:`bijection_failing_mask`) before
    it calls this only where one fails.  A failure message is written only
    for an entry whose failure bit is set, in enumeration order.
    """
    check_permutation(w, n)
    table = _bijection_table(n, ell)
    i = permutation_index(w)
    checks = tuple(
        (name, not fails >> i & 1)
        for name, applies, fails in _check_masks(n, ell)
        if applies >> i & 1
    )
    passed = dict(checks)
    failures = list(table.failures) + [
        f"preimage of below-w image {cols} is not below w"
        for cols in _failing(table.preimage_failing, i)
    ]

    in_pattern = "standard_count_identity" in passed
    standard_count = column_count = row_class_count = None
    if in_pattern:
        row_class_count = _bit_count(table.classes, i)
        standard_count = _bit_count(_level(n).standard, i)
        column_count = _bit_count(_level(n).below, i)
        if not passed["standard_count_identity"]:
            failures.append(
                f"standard count identity fails: standard={standard_count}, "
                f"classes={row_class_count}"
            )
        # reported for every pattern member, required only where 312-free
        failures.extend(
            f"image of below-w tableau {cols} not below w"
            for cols in _failing(table.image_failing, i)
        )
        failures.extend(
            f"surviving monomial {pair} misses below-w images"
            for pair in _failing(table.surjective_failing, i)
        )
        if not passed.get("column_count_identity", True):
            failures.append(
                f"column count identity fails: below_w={column_count}, "
                f"classes={row_class_count}"
            )

    return BijectionReport(n, ell, word_text(w), in_pattern, checks, standard_count,
                           column_count, row_class_count, tuple(failures))
