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

:func:`cross_validate` replays the whole classification against the
brute-force oracle and reports every disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from mfl.permcomb import (
    Permutation,
    all_permutations,
    delete_value,
    has_descending_property,
    in_zero_family,
    is_312_free,
    remove_max,
    restriction,
    zero_family_size,
)
from mfl.quadideal import BINOMIAL, NONBINOMIAL, ZERO, classify_oracle, verdicts_for_all_w

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

_VERDICT_OF_CLASS = {CLASS_Z: ZERO, CLASS_T: BINOMIAL, CLASS_N: NONBINOMIAL}


@dataclass(frozen=True)
class ClassificationRecord:
    n: int
    ell: int
    w: Permutation
    combinatorial_class: str
    in_pattern: bool
    witness_tags: frozenset[str]

    @property
    def predicted_verdict(self) -> str:
        return _VERDICT_OF_CLASS[self.combinatorial_class]


def exceptional_entries(n: int, ell: int) -> tuple[int, ...]:
    """(n, ell, n-1, ..., ell+1, ell-1, ..., 1); only defined for 1 <= ell <= n-2."""
    if not 1 <= ell <= n - 2:
        raise ValueError(f"no exceptional permutation for ell = {ell}")
    return (n, ell) + tuple(range(n - 1, ell, -1)) + tuple(range(ell - 1, 0, -1))


def _a2_excluded(n: int) -> tuple[int, ...]:
    return (n - 1, n) + tuple(range(n - 2, 0, -1))


@lru_cache(maxsize=64)  # the (n, ell) with 3 <= n <= 8 number 33
def binomial_family(n: int, ell: int) -> Mapping[tuple[int, ...], frozenset[str]]:
    """The permutations with binomial (non-zero) restricted ideal, with tags.

    Built inductively in n from the size n-1 families; the n = 3 base case
    is seeded from the oracle directly.  Every member carries the set of
    clauses that admitted it (overlaps allowed).  ``ell = 0`` is the diagonal
    field; ``ell = n-1`` the semi-diagonal one.

    >>> sorted("".join(map(str, e)) for e in binomial_family(4, 2))
    ['1342', '1432', '3214', '3241', '4231', '4321']
    """
    if n < 3:
        raise ValueError(f"families are defined for n >= 3, got {n}")
    if not 0 <= ell <= n - 1:
        raise ValueError(f"ell must be in 0..{n - 1}, got {ell}")
    if n == 3:
        return MappingProxyType({
            w.entries: frozenset({TAG_BASE})
            for w in all_permutations(3)
            if classify_oracle(3, ell, w).verdict == BINOMIAL
        })

    t_diag_prev = binomial_family(n - 1, 0)
    if ell == 0:
        t_prev = t_diag_prev
        t_semi_prev = None
    elif ell <= n - 2:
        t_prev = binomial_family(n - 1, ell)
        t_semi_prev = None
    else:
        t_prev = t_diag_prev
        t_semi_prev = binomial_family(n - 1, n - 2)

    excluded = _a2_excluded(n)
    exceptional = exceptional_entries(n, ell) if 1 <= ell <= n - 2 else None
    result = {}
    for w in all_permutations(n):
        e = w.entries
        ulw = remove_max(w)
        ule = ulw.entries
        t = e.index(n) + 1
        s = e.index(n - 1) + 1
        tags = set()
        if in_zero_family(ulw) and e[-1] == n - 2 and {e[-3], e[-2]} == {n - 1, n}:
            tags.add(TAG_A1)
        if ell == 0:
            if ule in t_prev and has_descending_property(ulw) and t >= s - 1:
                tags.add(TAG_A2)
        elif ell <= n - 2:
            if ule in t_prev:
                if has_descending_property(ulw) and t >= s - 1 and e != excluded:
                    tags.add(TAG_A2P)
                if not has_descending_property(ulw) and t >= s + 2:
                    tags.add(TAG_A3)
            if e == exceptional:
                tags.add(TAG_EXCEPTIONAL)
        else:
            in_diag = ule in t_diag_prev
            in_semi = ule in t_semi_prev
            if (
                in_diag
                and in_semi
                and has_descending_property(ulw)
                and t >= s - 1
                and e != excluded
            ):
                tags.add(TAG_AT1)
            if in_diag and not in_semi and t >= s + 1:
                tags.add(TAG_AT2)
        if tags:
            result[e] = frozenset(tags)
    return MappingProxyType(result)


# ---------------------------------------------------------------------------
# The pattern family


def _staircase(m: int) -> tuple[int, ...]:
    """(m-1, m, m-2, m-3, ..., 1)."""
    return (m - 1, m) + tuple(range(m - 2, 0, -1))


def _double_staircase(a: int, b: int) -> tuple[int, ...]:
    """(a, b, b-1, ..., a+1, a-1, ..., 1), a permutation of [b]."""
    return (a, b) + tuple(range(b - 1, a, -1)) + tuple(range(a - 1, 0, -1))


def in_pattern_family(w: Permutation, ell: int) -> bool:
    """Monomial-free characterization through 312-avoidance.

    For ell = 0 (diagonal) this is plain 312-freeness.  For 1 <= ell <= n-1:

    - a permutation containing a 312 pattern belongs iff w_1 > w_2 = ell and
      w with the value ell deleted is 312-free;
    - a 312-free permutation belongs unless some restriction w|_m equals
      (m-1, m, m-2, ..., 1) while the head fails w_1 < w_2 <= ell or
      w|_{w_2} differs from (w_1, w_2, w_2-1, ..., w_1+1, w_1-1, ..., 1).

    >>> in_pattern_family(Permutation((4, 2, 3, 1)), 2)
    True
    >>> in_pattern_family(Permutation((2, 4, 3, 1)), 2)
    False
    """
    if not 0 <= ell <= w.n - 1:
        raise ValueError(f"ell must be in 0..{w.n - 1}, got {ell}")
    e = w.entries
    if ell == 0:
        return is_312_free(e)
    if not is_312_free(e):
        return e[0] > e[1] == ell and is_312_free(delete_value(w, ell).values)
    triggered = any(
        restriction(w, m).entries == _staircase(m) for m in range(3, w.n + 1)
    )
    if not triggered:
        return True
    return (
        e[0] < e[1] <= ell
        and restriction(w, e[1]).entries == _double_staircase(e[0], e[1])
    )


def classify_combinatorial(n: int, ell: int, w: Permutation) -> ClassificationRecord:
    """Predicted class of (n, ell, w) from the combinatorial families alone."""
    if w.n != n:
        raise ValueError(f"permutation length {w.n} does not match n = {n}")
    family = binomial_family(n, ell)
    if in_zero_family(w):
        cls, tags = CLASS_Z, frozenset()
    elif w.entries in family:
        cls, tags = CLASS_T, family[w.entries]
    else:
        cls, tags = CLASS_N, frozenset()
    return ClassificationRecord(n, ell, w, cls, in_pattern_family(w, ell), tags)


# ---------------------------------------------------------------------------
# Cross-validation against the oracle


@dataclass(frozen=True)
class CrossValidationReport:
    n: int
    counts: tuple[tuple[int, dict[str, int]], ...]  # (ell, verdict counts)
    mismatches: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def binomial_counts(self) -> tuple[int, ...]:
        return tuple(c[BINOMIAL] for _, c in self.counts)

    def to_json_obj(self) -> dict:
        return {
            "schema": "mfl/1",
            "n": self.n,
            "mismatches": list(self.mismatches),
            "counts": {
                str(ell): dict(counts) for ell, counts in self.counts
            },
        }


def cross_validate(n: int, *, oracle_bound: int | None = None) -> CrossValidationReport:
    """Replay the classification of every (ell, w) against the oracle.

    Checks, for each ell in 0..n-1 and each w in S_n:

    - oracle verdict zero        iff w is in the zero family,
    - oracle verdict binomial    iff w is in the binomial family,
    - oracle monomial-free       iff w is in the pattern family,
    - members of the binomial family without the descending property are
      limited to the single exceptional permutation (for 1 <= ell <= n-2).

    Disagreements are returned as data, never raised.
    """
    mismatches: list[dict] = []
    counts = []
    for ell in range(n):
        family = binomial_family(n, ell)
        verdicts = verdicts_for_all_w(n, ell, bound=oracle_bound)
        tally = {ZERO: 0, BINOMIAL: 0, NONBINOMIAL: 0}
        for entries, verdict in verdicts.items():
            tally[verdict] += 1
            w = Permutation(entries)
            predicted = (
                ZERO
                if in_zero_family(w)
                else BINOMIAL
                if entries in family
                else NONBINOMIAL
            )
            if predicted != verdict:
                mismatches.append(
                    {
                        "kind": "class",
                        "ell": ell,
                        "w": w.to_string(),
                        "oracle": verdict,
                        "combinatorial": predicted,
                    }
                )
            pattern = in_pattern_family(w, ell)
            if pattern != (verdict != NONBINOMIAL):
                mismatches.append(
                    {
                        "kind": "pattern",
                        "ell": ell,
                        "w": w.to_string(),
                        "oracle": verdict,
                        "in_pattern_family": pattern,
                    }
                )
        non_descending = [
            e for e in family if not has_descending_property(Permutation(e))
        ]
        allowed = (
            [exceptional_entries(n, ell)] if 1 <= ell <= n - 2 else []
        )
        for e in non_descending:
            if e not in allowed:
                mismatches.append(
                    {
                        "kind": "descending-exception",
                        "ell": ell,
                        "w": Permutation(e).to_string(),
                    }
                )
        counts.append((ell, tally))
    return CrossValidationReport(n, tuple(counts), tuple(mismatches))


# ---------------------------------------------------------------------------
# Count tables


@dataclass(frozen=True)
class CountRow:
    n: int
    ell: int
    binomial_count: int
    zero_count: int
    nonbinomial_count: int


def count_table(
    n_min: int,
    n_max: int,
    mode: str = "both",
    *,
    oracle_bound: int | None = None,
) -> list[CountRow]:
    """Per-(n, ell) classification counts.

    ``mode`` is "combinatorial" (families only, any n), "oracle", or "both"
    (assert agreement; raises on mismatch since that is a programming error
    caught by cross_validate elsewhere).
    """
    if mode not in ("combinatorial", "oracle", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    rows = []
    for n in range(n_min, n_max + 1):
        z_count = zero_family_size(n)
        total = _factorial(n)
        for ell in range(n):
            if mode in ("combinatorial", "both"):
                t_count = len(binomial_family(n, ell))
            if mode in ("oracle", "both"):
                verdicts = verdicts_for_all_w(n, ell, bound=oracle_bound)
                o_counts = {ZERO: 0, BINOMIAL: 0, NONBINOMIAL: 0}
                for v in verdicts.values():
                    o_counts[v] += 1
                if mode == "both":
                    if o_counts[BINOMIAL] != t_count or o_counts[ZERO] != z_count:
                        raise AssertionError(
                            f"oracle and combinatorial counts disagree at (n={n}, ell={ell})"
                        )
                else:
                    t_count = o_counts[BINOMIAL]
                    z_count = o_counts[ZERO]
            rows.append(
                CountRow(n, ell, t_count, z_count, total - t_count - z_count)
            )
    return rows


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out
