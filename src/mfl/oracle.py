"""The brute-force ideal oracle: one restricted matching field ideal at a
time.

For one cut ell, the fibers of :mod:`mfl.quadideal` give the degree-two
generators of the matching field ideal, each fiber spanned by the binomials
of its members (:func:`quadratic_relations`).  Restricting by one
permutation w sets the variables of the vanishing set S_w to zero, and
:func:`classify_oracle` reads off what survives: the binomials, the
monomials left by fibers that survive in part, the verdict and the rank of
the degree-two span.  The bulk verdicts of all of S_n
(:func:`mfl.quadideal.verdict_masks`) need none of this; ``classify``,
``ideal`` and ``tables table1`` load it, and the a1-rank suite only for a
member that fails.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, NamedTuple

from mfl.matchfield import _swap_flag
from mfl.permcomb import all_index_keys, vanishing_keys, word_text
from mfl.quadideal import (
    BINOMIAL,
    NONBINOMIAL,
    ZERO,
    _check_case,
    _degree_blocks,
    _fiber_table,
)

Key = tuple[int, ...]
MonoKey = tuple[Key, Key]


class QuadraticRelation(NamedTuple):
    """A binomial ``P_I P_J - sign * P_I' P_J'`` in the kernel of the map.

    ``lhs``/``rhs`` are unordered pairs of sorted member tuples, with the
    lexicographically smaller pair stored first; ``sign`` is the product of
    the two image signs, so the relation vanishes under the signed map.
    """

    lhs: MonoKey
    rhs: MonoKey
    sign: int

    def text(self) -> str:
        op = "-" if self.sign == 1 else "+"
        return f"{mono_text(self.lhs)} {op} {mono_text(self.rhs)}"

    def to_json_obj(self) -> dict:
        return {
            "lhs": [word_text(k) for k in self.lhs],
            "rhs": [word_text(k) for k in self.rhs],
            "sign": self.sign,
        }


def mono_text(mono: MonoKey) -> str:
    return "*".join(f"P_{word_text(k)}" for k in mono)


def _key_order(k: Key) -> tuple[int, Key]:
    return (len(k), k)


def mono_key(a: Key, b: Key) -> MonoKey:
    """Unordered pair of variables, smaller (size, lex) key first."""
    return (a, b) if _key_order(a) <= _key_order(b) else (b, a)


def _mono_order(m: MonoKey) -> tuple:
    return tuple(_key_order(k) for k in m)


# ---------------------------------------------------------------------------
# The fibers of one cut


@lru_cache(maxsize=1)  # callers read again only the cut just built
def _fibers(n: int, ell: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """Fibers of size >= 2 of the degree-two monomials, block by block:
    entry b holds the fibers inside block b of :func:`_degree_blocks`, each
    a tuple of (local column, image sign) in column order, which is
    monomial order, the fibers in order of first column.  Read off the
    fibers of :func:`_fiber_table` that hold cut ``ell``.

    >>> _fibers(3, 0)  # P_1 P_23 and P_2 P_13 share an image; P_3 P_12 not
    ((((0, 1), (1, 1)),),)
    """
    signs = [-1 if _swap_flag(ell, key) else 1 for key in all_index_keys(n)]
    blocks = _degree_blocks(n)
    fibers: list[list[tuple[tuple[int, int], ...]]] = [[] for _ in blocks]
    for b, columns, cuts in _fiber_table(n):
        if cuts >> ell & 1:
            pairs = blocks[b]
            fibers[b].append(tuple(
                (c, signs[pairs[c][0]] * signs[pairs[c][1]]) for c in columns
            ))
    return tuple(map(tuple, fibers))


def _key_fibers(n: int, ell: int) -> Iterator[list[tuple[MonoKey, int]]]:
    """The fibers of :func:`_fibers`, members as (monomial key, image sign)."""
    keys = all_index_keys(n)
    for pairs, fibers in zip(_degree_blocks(n), _fibers(n, ell)):
        for fiber in fibers:
            yield [((keys[pairs[c][0]], keys[pairs[c][1]]), s) for c, s in fiber]


@lru_cache(maxsize=1)  # table1 reads one cut's relations for each w
def quadratic_relations(n: int, ell: int, all_pairs: bool = False) -> tuple[QuadraticRelation, ...]:
    """Degree-two binomial generators of the matching field ideal.

    Spanning mode (default) emits, for each fiber, every member against the
    fiber's smallest monomial; ``all_pairs`` emits every within-fiber pair.
    Relations are sorted by (lhs, rhs) so output is deterministic.

    >>> quadratic_relations(3, 0)[0].text()
    'P_1*P_23 - P_2*P_13'
    """
    # members come in monomial order, so m1 precedes m2
    relations = [
        QuadraticRelation(m1, m2, s1 * s2)
        for fiber in _key_fibers(n, ell)
        for (m1, s1), (m2, s2) in itertools.combinations(fiber, 2)
        if all_pairs or m1 == fiber[0][0]
    ]
    return tuple(
        sorted(relations, key=lambda r: (_mono_order(r.lhs), _mono_order(r.rhs)))
    )


# ---------------------------------------------------------------------------
# Restriction by a permutation


class ClassificationOutcome(NamedTuple):
    """Surviving generators of a restricted matching field ideal.

    ``surviving_monomials`` lists the surviving monomials whose fiber also
    contains a vanishing monomial; these lie in the restricted ideal, and the
    list does not depend on the choice of spanning set.  ``degree2_rank`` is
    the dimension of the degree-two span of the ideal's generators.
    """

    n: int
    ell: int
    w: tuple[int, ...]
    verdict: str
    surviving_binomials: tuple[QuadraticRelation, ...]
    surviving_monomials: tuple[MonoKey, ...]
    degree2_rank: int

    def to_json_obj(self) -> dict:
        return {
            "schema": "mfl/1",
            "n": self.n,
            "ell": self.ell,
            "w": word_text(self.w),
            "verdict": self.verdict,
            "generators": [r.to_json_obj() for r in self.surviving_binomials],
            "monomials": [[word_text(k) for k in m] for m in self.surviving_monomials],
            "degree2_rank": self.degree2_rank,
        }


def classify_oracle(
    n: int,
    ell: int,
    w: tuple[int, ...],
    *,
    all_pairs: bool = False,
) -> ClassificationOutcome:
    """Restricted-ideal classification for (n, ell, w); the fibers and the
    relations of the last (n, ell) are kept.

    >>> classify_oracle(4, 2, (3, 2, 1, 4)).verdict
    'binomial'
    """
    _check_case(n, ell, w=w)
    vanset = vanishing_keys(w)
    variables = all_index_keys(n)
    live = [key not in vanset for key in variables]
    monomials: list[tuple[int, int]] = []
    rank = 0
    for pairs, fibers in zip(_degree_blocks(n), _fibers(n, ell)):
        for fiber in fibers:
            survivors = [
                pairs[c] for c, _ in fiber if live[pairs[c][0]] and live[pairs[c][1]]
            ]
            # a wholly alive fiber spans |F| - 1 binomials, a partly
            # alive one leaves its survivors as monomials
            if len(survivors) < len(fiber):
                monomials.extend(survivors)
            rank += len(survivors) - (len(survivors) == len(fiber))
    binomials = tuple(
        r for r in quadratic_relations(n, ell, all_pairs)
        if vanset.isdisjoint(r.lhs) and vanset.isdisjoint(r.rhs)
    )
    # index pairs sort as their monomials do
    monomials_t = tuple((variables[i], variables[j]) for i, j in sorted(monomials))
    if monomials_t:
        verdict = NONBINOMIAL
    elif binomials:
        verdict = BINOMIAL
    else:
        verdict = ZERO
    return ClassificationOutcome(n, ell, w, verdict, binomials, monomials_t, rank)
