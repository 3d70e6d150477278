"""Combinatorial classification of restricted matching field ideals.

Three families of permutations are maintained, all defined without touching
the ideal oracle (except for the n = 3 seed):

- the zero family Z_n (products of pairwise non-adjacent simple
  transpositions), for which every restricted ideal vanishes;
- the binomial family T_{n, ell}, built inductively by inserting the value n
  into members of the size n-1 families, with a witness tag recording which
  clause admitted each permutation;
- the pattern family P_ell of permutations with monomial-free ideals,
  characterized through 312-avoidance.

All three are kept as bitsets over S_n (:func:`family_masks`), built once
per n with no pass over S_n: in ``itertools.permutations`` order the w with
w_1 = v are one run of (n-1)! bits ordered like S_{n-1}, so every mask is
made of shifted runs of masks over S_{n-1} and of masks lifted from
S_{n-1} (w with n deleted), in O(n^2) shifts and ORs plus one lift per
mask.  From cold, all cuts of one n take about 2 ms at n = 7, 14 ms at
n = 8 and 0.13 s at n = 9 (``BENCH_families.json``).  :func:`cross_validate`
replays the whole classification against the brute-force oracle and
reports every disagreement.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from operator import or_
from typing import NamedTuple

from mfl.permcomb import (
    check_cut,
    check_permutation,
    lift_masks,
    permutation_at,
    permutation_index,
    repeat_run,
    set_bits,
    suffix_mask,
    word_text,
    zero_family_size,
)
from mfl.quadideal import (
    BINOMIAL,
    NONBINOMIAL,
    ZERO,
    check_oracle_bound,
    verdict_at,
    verdict_masks,
)

TAG_A1 = "A1"
TAG_A2 = "A2"
TAG_A2P = "A2p"
TAG_A3 = "A3"
TAG_AT1 = "At1"
TAG_AT2 = "At2"
TAG_EXCEPTIONAL = "exceptional"
TAG_BASE = "base"

CLASS_Z = "Z"
CLASS_T = "T"
CLASS_N = "N"


class ClassificationRecord(NamedTuple):
    n: int
    ell: int
    w: tuple[int, ...]
    combinatorial_class: str
    in_pattern: bool
    witness_tags: frozenset[str]


def exceptional_entries(n: int, ell: int) -> tuple[int, ...]:
    """(n, ell, n-1, ..., ell+1, ell-1, ..., 1); only defined for 1 <= ell <= n-2."""
    if not 1 <= ell <= n - 2:
        raise ValueError(f"no exceptional permutation for ell = {ell}")
    return (n, ell) + tuple(range(n - 1, ell, -1)) + tuple(range(ell - 1, 0, -1))


def _staircase(m: int) -> tuple[int, ...]:
    """(m-1, m, m-2, m-3, ..., 1)."""
    return (m - 1, m) + tuple(range(m - 2, 0, -1))


# ---------------------------------------------------------------------------
# The families as bitsets over S_n
#
# Bit i of every mask stands for the i-th permutation of [n] in
# ``itertools.permutations`` order (see :mod:`mfl.permcomb`).


def _bit(entries: tuple[int, ...]) -> int:
    return 1 << permutation_index(entries)


class FamilyMasks(NamedTuple):
    """The families at one (n, ell) as bitsets over S_n, with the masks of
    S_n they are built from: 312-free w, w whose entries after n decrease
    (``descending``), and w with some restriction w|_m (m >= 3) equal to
    (m-1, m, m-2, ..., 1) (``staircase``).  ``tags`` holds the (tag,
    members) masks of the binomial family's clauses."""

    zero: int
    binomial: int
    pattern: int
    free_312: int
    descending: int
    staircase: int
    tags: tuple[tuple[str, int], ...]


def family_masks(n: int, ell: int) -> FamilyMasks:
    """The zero, binomial and pattern families at (n, ell); ``ell = 0`` is
    the diagonal field, ``ell = n-1`` the semi-diagonal one.  The binomial
    family is built by induction on n from an oracle seed at n = 3.

    >>> m = family_masks(4, 2)
    >>> [word_text(permutation_at(4, i)) for i in set_bits(m.binomial)]
    ['1342', '1432', '3214', '3241', '4231', '4321']
    """
    if n < 3:
        raise ValueError(f"families are defined for n >= 3, got {n}")
    check_cut(n, ell)
    return _families(n)[ell]


@lru_cache(maxsize=10)  # the families up to n = 8 use n = 1..8
def _families(n: int) -> tuple[FamilyMasks, ...]:
    """:func:`family_masks` for every ell (no binomial family for n < 3).

    No w is visited: in ``itertools.permutations`` order the w with w_1 =
    v are run v of (n-1)! bits, ordered like S_{n-1}, so each mask is built
    from runs of masks over S_{n-1} and from lifted masks (the lift of a
    mask over S_{n-1} has the w whose parent, w with n deleted, is in it):

    - w is descending iff w_1 = n and the rest decreases, or w_1 < n and
      the rest is descending;
    - w is in Z_n iff its parent is in Z_{n-1} and w ends with n or with
      (n, n-1); w is 312-free iff its parent is and w is descending (n can
      only play the 3 of a 312); w|_m for m < n is the parent's restriction;
    - each binomial clause is a condition on the parent, the tail and the
      positions of n and n-1 (:func:`_gaps`);
    - the pattern family reads the heads (w_1, w_2) = (a, v), each a run of
      (n-2)! bits: for a > v, whether w without w_2 is 312-free is run a-1
      of the 312-free mask over S_{n-1}; for a < v, a 312-free w has its
      values below v after w_2 in decreasing order, so w|_v is the double
      staircase (a, v, v-1, ..., a+1, a-1, ..., 1).
    """
    if n == 1:
        return (FamilyMasks(1, 0, 1, 1, 1, 0, ()),)
    prev = _families(n - 1)
    width, sub = math.factorial(n - 1), math.factorial(n - 2)
    lifted_zero, lifted_free, lifted_staircase, parent_desc, *lifted = lift_masks(
        n, (prev[0].zero, prev[0].free_312, prev[0].staircase, prev[0].descending,
            *(masks.binomial for masks in prev)))
    desc = repeat_run(prev[0].descending, width, n - 1) | 1 << n * width - 1
    free_312 = lifted_free & desc
    staircase = lifted_staircase | (_bit(_staircase(n)) if n >= 3 else 0)
    zero = lifted_zero & (suffix_mask(n, (n,)) | suffix_mask(n, (n, n - 1)))
    # 312-free w belong unless a staircase restriction comes without a
    # head w_1 < w_2 <= ell; the others iff w_2 = ell and w without w_2 is
    # 312-free (the head (a, v) is bits (a-1) (n-1)! + (u_1-1) (n-2)! on,
    # with u_1 = v-1 for a < v and u_1 = v for a > v)
    patterns, ascending, head = [free_312], 0, (1 << sub) - 1
    for v in range(1, n):
        ascending |= sum(head << (a - 1) * width + (v - 2) * sub for a in range(1, v))
        free_rest = sum((prev[0].free_312 >> (a - 2) * sub & head)
                        << (a - 1) * width + (v - 1) * sub for a in range(v + 1, n + 1))
        patterns.append(free_312 & ~(staircase & ~ascending) | free_rest & ~free_312)

    tags: list[tuple[tuple[str, int], ...]] = [()] * n
    if n == 3:
        tags = [((TAG_BASE, _oracle_seed(ell)),) for ell in range(3)]
    elif n > 3:
        a1_tails = suffix_mask(n, (n - 1, n, n - 2)) | suffix_mask(n, (n, n - 1, n - 2))
        a1 = ((TAG_A1, lifted_zero & a1_tails),)
        ge_m1, ge_p1, ge_p2 = _gaps(n)
        excluded = _bit(_staircase(n))
        diag, semi = lifted[0], lifted[n - 2]
        tags[0] = a1 + ((TAG_A2, diag & parent_desc & ge_m1),)
        for ell in range(1, n - 1):
            tags[ell] = a1 + (
                (TAG_A2P, lifted[ell] & parent_desc & ge_m1 & ~excluded),
                (TAG_A3, lifted[ell] & ~parent_desc & ge_p2),
                (TAG_EXCEPTIONAL, _bit(exceptional_entries(n, ell))),
            )
        tags[n - 1] = a1 + (
            (TAG_AT1, diag & semi & parent_desc & ge_m1 & ~excluded),
            (TAG_AT2, diag & ~semi & ge_p1),
        )
    return tuple(
        FamilyMasks(zero, reduce(or_, (m for _, m in clauses), 0), pattern,
                    free_312, desc, staircase, clauses)
        for clauses, pattern in zip(tags, patterns)
    )


def _gaps(n: int) -> tuple[int, int, int]:
    """The w in S_n with pos(n) - pos(n-1) >= -1, >= 1 and >= 2.  In run
    v < n-1 the gap is the rest's; w_1 = n-1 gives pos(n) >= 1, and >= 2
    unless w_2 = n; w_1 = n gives -pos(n-1) >= -1 only for w_2 = n-1."""
    if n == 1:
        return 0, 0, 0
    width, sub = math.factorial(n - 1), math.factorial(n - 2)
    ge_m1, ge_p1, ge_p2 = (repeat_run(m, width, n - 2) for m in _gaps(n - 1))
    first = ((1 << width) - 1) << (n - 2) * width
    second = ((1 << sub) - 1) << (n - 1) * width + (n - 2) * sub
    not_second = ((1 << (n - 2) * sub) - 1) << (n - 2) * width
    return ge_m1 | first | second, ge_p1 | first, ge_p2 | not_second


def _oracle_seed(ell: int) -> int:
    """The binomial family at n = 3, read off the oracle's verdict masks."""
    monomial, surviving = verdict_masks(3, ell)
    return surviving & ~monomial


def classify_combinatorial(
    n: int, ell: int, w: tuple[int, ...]
) -> ClassificationRecord:
    """Predicted class of (n, ell, w) from the combinatorial families alone."""
    check_permutation(w, n)
    masks = family_masks(n, ell)
    i = permutation_index(w)
    if masks.zero >> i & 1:
        cls, tags = CLASS_Z, frozenset()
    elif masks.binomial >> i & 1:
        cls = CLASS_T
        tags = frozenset(tag for tag, m in masks.tags if m >> i & 1)
    else:
        cls, tags = CLASS_N, frozenset()
    return ClassificationRecord(n, ell, w, cls, bool(masks.pattern >> i & 1), tags)


# ---------------------------------------------------------------------------
# Cross-validation against the oracle


class CrossValidationReport(NamedTuple):
    n: int
    counts: tuple[tuple[int, dict[str, int]], ...]  # (ell, verdict counts)
    mismatches: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def binomial_counts(self) -> tuple[int, ...]:
        return tuple(c[BINOMIAL] for _, c in self.counts)


def cross_validate(n: int, *, oracle_bound: int | None = None) -> CrossValidationReport:
    """Replay the classification of every (ell, w) against the oracle.

    Checks, for each ell in 0..n-1 and each w in S_n:

    - oracle verdict zero        iff w is in the zero family,
    - oracle verdict binomial    iff w is in the binomial family,
    - oracle monomial-free       iff w is in the pattern family,
    - members of the binomial family without the descending property are
      limited to the single exceptional permutation (for 1 <= ell <= n-2).

    Both sides are bitsets over S_n; only the set bits of their XOR are
    walked, in enumeration order.  Disagreements are returned as data,
    never raised.
    """
    mismatches: list[dict] = []
    counts = []
    full = (1 << math.factorial(n)) - 1
    for ell in range(n):
        masks = family_masks(n, ell)
        monomial, surviving = verdict_masks(n, ell, bound=oracle_bound)
        tally = {
            ZERO: full.bit_count() - surviving.bit_count(),
            BINOMIAL: (surviving & ~monomial).bit_count(),
            NONBINOMIAL: monomial.bit_count(),
        }
        # the families' prediction, in the form of verdict_masks
        predicted = full & ~(masks.zero | masks.binomial), full & ~masks.zero
        wrong_class = (predicted[0] ^ monomial) | (predicted[1] ^ surviving)
        wrong_pattern = masks.pattern ^ (full & ~monomial)
        for i in set_bits(wrong_class | wrong_pattern):
            w = word_text(permutation_at(n, i))
            verdict = verdict_at(monomial, surviving, i)
            if wrong_class >> i & 1:
                mismatches.append({"kind": "class", "ell": ell, "w": w,
                                   "oracle": verdict,
                                   "combinatorial": verdict_at(*predicted, i)})
            if wrong_pattern >> i & 1:
                mismatches.append({"kind": "pattern", "ell": ell, "w": w,
                                   "oracle": verdict,
                                   "in_pattern_family": bool(masks.pattern >> i & 1)})
        allowed = _bit(exceptional_entries(n, ell)) if 1 <= ell <= n - 2 else 0
        for i in set_bits(masks.binomial & ~masks.descending & ~allowed):
            w = word_text(permutation_at(n, i))
            mismatches.append({"kind": "descending-exception", "ell": ell, "w": w})
        counts.append((ell, tally))
    return CrossValidationReport(n, tuple(counts), tuple(mismatches))


# ---------------------------------------------------------------------------
# Count tables


class CountRow(NamedTuple):
    """Counts at one (n, ell), from the families.  ``oracle_counts`` holds
    the oracle's (binomial, zero) counts where they differ from the
    families'; it is None where the two agree."""

    n: int
    ell: int
    binomial_count: int
    zero_count: int
    nonbinomial_count: int
    oracle_counts: tuple[int, int] | None = None


def count_table(n_min: int, n_max: int) -> list[CountRow]:
    """Per-(n, ell) classification counts of the families, with any
    disagreement of the oracle recorded in the row's ``oracle_counts``,
    never raised."""
    check_oracle_bound(n_min, n_max)
    rows = []
    for n in range(n_min, n_max + 1):
        total = math.factorial(n)
        z_count = zero_family_size(n)
        for ell in range(n):
            t_count = family_masks(n, ell).binomial.bit_count()
            monomial, surviving = verdict_masks(n, ell)
            observed = ((surviving & ~monomial).bit_count(),
                        total - surviving.bit_count())
            oracle_counts = None if observed == (t_count, z_count) else observed
            rows.append(CountRow(n, ell, t_count, z_count,
                                 total - t_count - z_count, oracle_counts))
    return rows
