"""Named exhaustive verification suites, shared by the CLI and the tests.

Each suite runs a family of checks over a configurable range and returns a
:class:`SuiteReport`; nothing raises on a mathematical mismatch, so a failing
suite can be inspected as data.  Each suite imports the layers it reads when
it runs: the coherence check, the combinatorial families, the per-w oracle,
the tableaux layer and the exact linear algebra load only with the suites
that use them.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from operator import or_

from mfl import SUITES
from mfl.permcomb import View, mask_bits, permutation_at, restriction, set_bits, word_text
from mfl.quadideal import ZERO, CapabilityError, check_oracle_bound, rank_one_mask

#: run_theorem_c and run_pattern check the oracle-free set identities to
#: this n, past the oracle bound.
COMBINATORIAL_N_MAX = 7

#: run_theorem_a's range when no n_max is given, as in ``--suite all``.
THEOREM_A_N_MAX = 4


class SuiteReport:
    """The checks a suite ran and the mismatches it found; suites add to
    both as they go, so this one record is mutable."""

    def __init__(self, suite: str):
        self.suite = suite
        self.checked = 0
        self.mismatches: list[dict] = []

    def __eq__(self, other):
        if type(other) is not SuiteReport:
            return NotImplemented
        return (self.suite, self.checked, self.mismatches) == (
            other.suite, other.checked, other.mismatches)

    def __repr__(self) -> str:
        return (f"SuiteReport(suite={self.suite!r}, checked={self.checked!r}, "
                f"mismatches={self.mismatches!r})")

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def record(self, **info) -> None:
        self.mismatches.append(info)

    def merge(self, other: "SuiteReport") -> None:
        self.checked += other.checked
        self.mismatches.extend(
            dict(m, suite=other.suite) for m in other.mismatches
        )

    def to_json_obj(self) -> dict:
        return {
            "schema": "mfl/1",
            "suite": self.suite,
            "ok": self.ok,
            "checked": self.checked,
            "mismatches": self.mismatches,
        }


def run_coherence(n_max: int = 7) -> SuiteReport:
    """Unique-minimum checks for every field with n <= n_max, plus the
    demonstration that the uncorrected placement rule is not induced by the
    weight matrix at (4, 1).  Only this suite loads :mod:`mfl.coherence`."""
    from mfl.coherence import verify_coherence

    report = SuiteReport("coherence")
    for n in range(2, n_max + 1):
        for ell in range(n):
            result = verify_coherence(n, ell)
            report.checked += result.checked
            if not result.ok:
                first = result.first_failure()
                report.record(
                    n=n, ell=ell, members=first.members, tie=first.tie,
                    expected=first.expected_rows, minimal=first.minimal_rows,
                )
    literal = verify_coherence(4, 1, rule="literal")
    report.checked += 1
    bad = {f.members for f in literal.failures}
    if literal.ok or (3, 4) not in bad:
        report.record(
            n=4, ell=1, detail="literal placement rule unexpectedly coherent"
        )
    return report


def _cross_validated(report: SuiteReport, n_max: int):
    """The mismatches of :func:`mfl.theoremsets.cross_validate` for n =
    3..n_max, as (n, mismatch); every (ell, w) it compares counts as one
    check of ``report``."""
    from mfl.theoremsets import cross_validate

    check_oracle_bound(3, n_max)
    for n in range(3, n_max + 1):
        result = cross_validate(n)
        report.checked += sum(sum(c.values()) for _, c in result.counts)
        for m in result.mismatches:
            yield n, m


def run_theorem_b(n_max: int = 6) -> SuiteReport:
    """Oracle verdict zero iff membership in the zero family, for every cut."""
    report = SuiteReport("theoremB")
    for n, m in _cross_validated(report, n_max):
        if m["kind"] == "class" and (m["oracle"] == ZERO) != (m["combinatorial"] == ZERO):
            report.record(n=n, ell=m["ell"], w=m["w"], verdict=m["oracle"])
    return report


def run_theorem_c(n_max: int = 6) -> SuiteReport:
    """Binomial family against the oracle, the descending-property exception,
    and the oracle-free set identities up to :data:`COMBINATORIAL_N_MAX`."""
    from mfl.theoremsets import family_masks

    report = SuiteReport("theoremC")
    for n, m in _cross_validated(report, n_max):
        if m["kind"] in ("class", "descending-exception"):
            report.record(n=n, **m)
    for n in range(3, COMBINATORIAL_N_MAX + 1):
        for ell in range(n):
            masks = family_masks(n, ell)
            report.checked += math.factorial(n)
            overlap = masks.binomial & masks.zero
            differs = (masks.binomial | masks.zero) ^ masks.pattern
            for i in set_bits(overlap | differs):
                w = word_text(permutation_at(n, i))
                if overlap >> i & 1:
                    report.record(n=n, ell=ell, w=w,
                                  detail="binomial and zero families overlap")
                if differs >> i & 1:
                    report.record(n=n, ell=ell, w=w,
                                  detail="T union Z differs from pattern family")
    return report


def run_pattern(n_max: int = 6) -> SuiteReport:
    """Monomial-freeness iff pattern family membership, plus the structural
    facts about 312 patterns inside the pattern family."""
    from mfl.theoremsets import family_masks

    report = SuiteReport("P")
    for n, m in _cross_validated(report, n_max):
        if m["kind"] == "pattern":
            report.record(n=n, ell=m["ell"], w=m["w"], verdict=m["oracle"])
    for n in range(3, COMBINATORIAL_N_MAX + 1):
        # bits are read off bit text: a shift of an n!-bit int costs time in n!
        width = math.factorial(n)
        masks = [family_masks(n, ell).pattern for ell in range(1, n)]
        patterns = [(ell, mask_bits(mask, width)) for ell, mask in enumerate(masks, 1)]
        free_312 = mask_bits(family_masks(n, 0).free_312, width)
        for index in View.from_mask(width, reduce(or_, masks)).positions:
            w = permutation_at(n, index)
            # each 312 in w, once for all ell: (position of the 3, the 1)
            occurrences = [(i, w[j]) for i, j, k in itertools.combinations(range(n), 3)
                           if w[j] < w[k] < w[i]]
            for ell, text in patterns:
                if text[index] != "1":
                    continue
                report.checked += 1
                for i, low in occurrences:
                    if i != 0 or low != ell:
                        report.record(
                            n=n, ell=ell, w=word_text(w),
                            detail="312 pattern not anchored at (w_1, ell)",
                        )
                if free_312[index] != "1":
                    expected = (w[0], ell) + tuple(
                        v for v in range(w[0] - 1, 0, -1) if v != ell
                    )
                    if restriction(w, w[0]) != expected:
                        report.record(
                            n=n, ell=ell, w=word_text(w),
                            detail="restriction to w_1 has unexpected shape",
                        )
    return report


def run_theorem_a(n_max: int = THEOREM_A_N_MAX, cap: int | None = None) -> SuiteReport:
    """Surviving binomial span equals the initial degree-two span for every
    monomial-free case up to n_max.  Only this suite loads
    :mod:`mfl.flagideal`, and with it the exact linear algebra."""
    from mfl.flagideal import LA_CAP_DEFAULT, theorem_a_masks

    report = SuiteReport("theoremA")
    cap = LA_CAP_DEFAULT if cap is None else cap
    if n_max > cap:
        raise ValueError(f"n_max {n_max} exceeds the linear-algebra cap {cap}")
    for n in range(3, n_max + 1):
        for ell in range(n):
            masks = theorem_a_masks(n, ell, cap=cap)
            report.checked += masks.checked.bit_count()
            for i in set_bits(masks.failing):
                w = word_text(permutation_at(n, i))
                if masks.partial >> i & 1:
                    report.record(n=n, ell=ell, w=w,
                                  detail="a fiber survives in part: not monomial-free")
                else:
                    report.record(n=n, ell=ell, w=w)
    return report


#: run_tableaux refuses larger n.  n = 9 waits on the tables of its cuts,
#: about 28 s and 550 MB each at full width when measured once, before a
#: table skipped the masks of the tableaux its map leaves unchanged (ROADMAP
#: item 1); _level(9), with one-pass chains, took 23.0 s of CPU (median of
#: three runs from cold, 20.7-25.5 s) and a 61 MB peak.
TABLEAUX_N_MAX = 8


def run_tableaux(n_max: int = 5) -> SuiteReport:
    """Bijection suite over the pattern family, two-column standardness
    against column domination for 312-free w, and agreement of the two
    defining-chain computations.

    Per (n, ell), every pattern-family w counts as one bijection check, and
    :func:`mfl.tableaux.bijection_failing_mask` decides them all on bitsets
    over S_n; :func:`mfl.tableaux.verify_bijection` writes the report only
    for the w where that mask is set.  Raises ``CapabilityError`` for
    n_max > 8 before any work.  Only this suite loads :mod:`mfl.tableaux`.
    """
    if n_max > TABLEAUX_N_MAX:
        raise CapabilityError(
            f"n_max {n_max} exceeds the tableaux suite's bound {TABLEAUX_N_MAX}"
        )
    from mfl.tableaux import _level, bijection_failing_mask, verify_bijection
    from mfl.theoremsets import family_masks

    report = SuiteReport("tableaux")
    for n in range(3, n_max + 1):
        for ell in range(n):
            report.checked += family_masks(n, ell).pattern.bit_count()
            for i in set_bits(bijection_failing_mask(n, ell)):
                result = verify_bijection(n, ell, permutation_at(n, i))
                report.record(n=n, ell=ell, w=result.w,
                              failures=result.failures[:3])
        level = _level(n)
        report.checked += len(level.tableaux)
        for t in level.chain_failing:
            report.record(n=n, columns=t,
                          detail="constructive chain differs from exhaustive")
        # per tableau, the 312-free w where standardness and domination differ
        report.checked += family_masks(n, 0).free_312.bit_count() * len(level.tableaux)
        differs = level.domination_failing
        for i in set_bits(reduce(or_, (mask for _, mask in differs), 0)):
            w = word_text(permutation_at(n, i))
            for t, mask in differs:
                if mask >> i & 1:
                    report.record(n=n, w=w, columns=t,
                                  detail="standardness differs from domination")
    return report


def run_a1_rank(n_max: int = 6) -> SuiteReport:
    """Every member of the A1 clause has a principal (rank one) ideal.

    Decided on bitsets over S_n: the A1 members outside
    :func:`mfl.quadideal.rank_one_mask` fail, and only for them does
    :func:`mfl.oracle.classify_oracle` load and run, to record the verdict
    and the rank.
    """
    from mfl.theoremsets import TAG_A1, family_masks

    report = SuiteReport("a1_rank")
    for n in range(4, n_max + 1):
        for ell in range(n):
            a1 = dict(family_masks(n, ell).tags)[TAG_A1]
            report.checked += a1.bit_count()
            for i in set_bits(a1 & ~rank_one_mask(n, ell)):
                from mfl.oracle import classify_oracle

                w = permutation_at(n, i)
                outcome = classify_oracle(n, ell, w)
                report.record(n=n, ell=ell, w=word_text(w),
                              verdict=outcome.verdict,
                              rank=outcome.degree2_rank)
    return report


_RUNNERS = {
    "coherence": run_coherence,
    "theoremB": run_theorem_b,
    "theoremC": run_theorem_c,
    "P": run_pattern,
    "theoremA": run_theorem_a,
    "tableaux": run_tableaux,
}


def run_suite(name: str, n_max: int | None = None, cap: int | None = None) -> SuiteReport:
    """Run one named suite, with its default range unless n_max is given, or
    "all" at their default ranges; caps apply to the linear-algebra suite only."""
    if name == "all":
        if n_max is not None:
            raise ValueError("--n-max applies to a single suite; "
                             "--suite all runs each at its default range")
        # checked before any suite runs, not when theoremA's turn comes
        if cap is not None and cap < THEOREM_A_N_MAX:
            raise ValueError(
                f"--suite all runs theoremA to n = {THEOREM_A_N_MAX} (its default range),"
                f" past the linear-algebra cap {cap}; use --la-cap {THEOREM_A_N_MAX} or more"
            )
        combined = SuiteReport("all")
        for sub in _RUNNERS:
            combined.merge(run_suite(sub, n_max=None, cap=cap))
        combined.merge(run_a1_rank())
        return combined
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    runner = _RUNNERS[name]
    kwargs = {}
    if n_max is not None:
        kwargs["n_max"] = n_max
    if name == "theoremA" and cap is not None:
        kwargs["cap"] = cap
    return runner(**kwargs)
