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

All three are kept as bitsets over S_n (:func:`family_masks`), built by
insert-max induction once per n.  :func:`cross_validate` replays the whole
classification against the brute-force oracle and reports every
disagreement.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, reduce
from operator import itemgetter, or_
from typing import NamedTuple

from mfl.permcomb import (
    check_permutation,
    mask_bits,
    permutation_at,
    permutation_index,
    set_bits,
    to_mask,
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


def _double_staircase(a: int, b: int) -> tuple[int, ...]:
    """(a, b, b-1, ..., a+1, a-1, ..., 1), a permutation of [b]."""
    return (a, b) + tuple(range(b - 1, a, -1)) + tuple(range(a - 1, 0, -1))


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
    if not 0 <= ell <= n - 1:
        raise ValueError(f"ell must be in 0..{n - 1}, got {ell}")
    return _families(n)[ell]


@lru_cache(maxsize=10)  # the families up to n = 8 use n = 1..8
def _families(n: int) -> tuple[FamilyMasks, ...]:
    """:func:`family_masks` for every ell (no binomial family for n < 3).

    One pass over S_n reads a few facts about each w; the rest is ANDs and
    ORs of lifted masks over S_{n-1} (the lift of a mask has the w whose
    parent, w with the value n deleted, is in it):

    - w is in Z_n iff its parent is in Z_{n-1} and w ends with n or with
      (n, n-1);
    - w is 312-free iff its parent is and w is descending (n can only
      play the 3 of a 312);
    - w|_m for m < n is the parent's restriction to m;
    - each binomial clause is a condition on the parent and on the
      positions of n and n-1.
    """
    if n == 1:
        return (FamilyMasks(1, 0, 1, 1, 1, 0, ()),)
    prev = _families(n - 1)
    width_prev, width = math.factorial(n - 1), math.factorial(n)
    index_prev = {e: i for i, e in enumerate(itertools.permutations(range(1, n)))}
    free_prev = mask_bits(prev[0].free_312, width_prev)
    parent, gaps, tails, descending = [], [], [], []
    heads = [bytearray(width) for _ in range(n + 1)]  # heads[v]: w_2 = v, head holds
    for i, e in enumerate(itertools.permutations(range(1, n + 1))):
        t = e.index(n)
        parent.append(index_prev[e[:t] + e[t + 1:]])
        gaps.append(t - e.index(n - 1))
        tails.append(e[-3:])
        after = e[t + 1:]
        descending.append(all(a > b for a, b in zip(after, after[1:])))
        v = e[1]
        free = descending[i] and free_prev[parent[i]] == "1"
        if free and e[0] < v:
            # is w|_{w_2} = (w_1, w_2, w_2-1, ..., w_1+1, w_1-1, ..., 1)?
            heads[v][i] = tuple(x for x in e if x <= v) == _double_staircase(e[0], v)
        elif not free and e[0] > v:
            # is w without w_2 312-free?
            rest = tuple(x - (x > v) for x in e if x != v)
            heads[v][i] = free_prev[index_prev[rest]] == "1"

    # character k of a mask's binary text is bit N-1-k, whose parent is
    # character parent[N-1-k] of the bit text over S_{n-1}
    pick = itemgetter(*reversed(parent))

    def lift(mask: int) -> int:
        return int("".join(pick(mask_bits(mask, width_prev))), 2) if mask else 0

    lifted_zero = lift(prev[0].zero)
    desc = to_mask(descending)
    free_312 = lift(prev[0].free_312) & desc
    staircase = lift(prev[0].staircase) | (_bit(_staircase(n)) if n >= 3 else 0)
    zero = lifted_zero & to_mask(x[-1] == n or x[-2:] == (n, n - 1) for x in tails)
    # 312-free w belong unless a staircase restriction comes without a
    # double-staircase head at w_2 <= ell; the others iff w_2 = ell and w
    # without w_2 is 312-free
    patterns = [free_312]
    double_heads = 0
    for ell in range(1, n):
        head = to_mask(heads[ell])
        double_heads |= head & free_312
        patterns.append(free_312 & ~(staircase & ~double_heads) | head & ~free_312)

    tags: list[tuple[tuple[str, int], ...]] = [()] * n
    if n == 3:
        tags = [((TAG_BASE, _oracle_seed(ell)),) for ell in range(3)]
    elif n > 3:
        lifted = [lift(masks.binomial) for masks in prev]
        parent_desc = lift(prev[0].descending)
        a1_tails = ((n - 1, n, n - 2), (n, n - 1, n - 2))
        a1 = ((TAG_A1, lifted_zero & to_mask(x in a1_tails for x in tails)),)
        ge_m1, ge_p1, ge_p2 = (to_mask(g >= k for g in gaps) for k in (-1, 1, 2))
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
