"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria marked slow extend a sweep to n = 5, 6 or 7 and are
deselected by default profiles that exclude the ``slow`` marker.
"""

import itertools
import time
from contextlib import contextmanager

import pytest

from initial_ideal_oracle import initial_degree2, surviving_binomial_space
from mask_oracle import binomial_members, verdict_items
from mfl import golden
from mfl.cli import parse_permutation
from mfl.matchfield import verify_coherence
from mfl.permcomb import (
    permutation_index,
    vanishing_keys,
    word_text,
    zero_family,
    zero_family_size,
)
from mfl.flagideal import theorem_a_masks
from mfl.quadideal import (
    BINOMIAL,
    NONBINOMIAL,
    classify_oracle,
    mono_key,
    quadratic_relations,
)
from mfl.suites import run_tableaux, run_theorem_a
from mfl.tableaux import enumerate_ssyt2, verify_bijection
from mfl.theoremsets import (
    TAG_A1,
    count_table,
    cross_validate,
)
from per_w_reference import in_pattern_family, is_312_free, is_standard


@contextmanager
def criterion(number, description, bound_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s < {bound_seconds}s)")
    assert elapsed < bound_seconds, f"criterion {number} exceeded {bound_seconds}s"


def golden_relation_set(rows):
    out = set()
    for m1, m2, sign in rows:
        first = (len(m1[0]), m1) <= (len(m2[0]), m2)
        out.add((m1 if first else m2, m2 if first else m1, sign))
    return out


def test_criterion_1_ideals_n3():
    with criterion(1, "nine n=3 ideal cells match, spans exact", 1.0):
        for (ell, wstr), expected in golden.IDEALS_N3.items():
            w = parse_permutation(wstr, 3)
            outcome = classify_oracle(3, ell, w)
            expected_monos = sorted(mono_key(*m) for m in expected["monomials"])
            assert sorted(outcome.surviving_monomials) == expected_monos, (ell, wstr)
            supports = {
                frozenset((r.lhs, r.rhs)) for r in outcome.surviving_binomials
            }
            expected_supports = {
                frozenset((mono_key(*m1), mono_key(*m2)))
                for m1, m2 in expected["binomials"]
            }
            assert supports == expected_supports, (ell, wstr)
            if expected["binomials"]:
                assert outcome.verdict == BINOMIAL
                # dual route: the surviving span equals the initial ideal span
                init = initial_degree2(3, ell, w)
                gs = surviving_binomial_space(3, ell, w, init)
                assert gs.rows == init.rows, (ell, wstr)
            else:
                assert outcome.verdict == NONBINOMIAL


def test_criterion_2_toric_lists_n4():
    with criterion(2, "n=4 binomial lists: family and oracle match", 1.0):
        for ell in range(4):
            expected = sorted(golden.TORIC_LISTS_N4[ell])
            family = sorted(
                word_text(e) for e in binomial_members(4, ell)
            )
            oracle = sorted(
                word_text(e)
                for e, v in verdict_items(4, ell)
                if v == BINOMIAL
            )
            assert family == expected, ell
            assert oracle == expected, ell


def test_criterion_3_count_table():
    with criterion(3, "count table n=3..6 exact, n=6 sweep single-threaded", 60.0):
        rows = count_table(3, 6)
        for row in rows:
            assert row.binomial_count == golden.COUNT_TABLE[row.n][row.ell], (
                row.n, row.ell,
            )
        assert sum(golden.COUNT_TABLE[5]) == 144
        print(
            "  note: printed n=5 total 114 is a misprint; computed sum 144 "
            "is reported instead"
        )
        # the printed n=3 row (2,1,2) contradicts the printed n=3 ideal
        # cells (criterion 1), which force (2,2,1); the computed row is kept
        assert golden.COUNT_TABLE[3] == (2, 2, 1)
        assert golden.COUNT_TABLE_PRINTED_N3 == (2, 1, 2)
        print(
            "  note: printed n=3 row (2,1,2) contradicts the printed n=3 "
            "ideals; computed row (2,2,1) is reported instead"
        )


def test_criterion_4_zero_family():
    with criterion(4, "zero family listings and size recurrence to n=15", 1.0):
        for n, expected in golden.ZERO_FAMILY_LISTS.items():
            assert {word_text(w) for w in zero_family(n)} == set(expected)
        sizes = {n: zero_family_size(n) for n in range(1, 16)}
        assert sizes[1] == 1 and sizes[2] == 2
        for n in range(3, 16):
            assert sizes[n] == sizes[n - 1] + sizes[n - 2]
        assert len(zero_family(7)) == sizes[7] == 21


def test_criterion_5_generating_sets():
    with criterion(5, "ten-generator sets for both n=4 fields, signs exact", 1.0):
        computed = {(r.lhs, r.rhs, r.sign) for r in quadratic_relations(4, 2)}
        assert computed == golden_relation_set(golden.GENERATORS_N4_ELL2)
        computed = {(r.lhs, r.rhs, r.sign) for r in quadratic_relations(4, 0)}
        assert computed == golden_relation_set(golden.GENERATORS_N4_DIAGONAL)


def test_criterion_6_restricted_cell():
    with criterion(6, "restriction at (4,2,3214) is the principal cell", 5.0):
        w = (3, 2, 1, 4)
        outcome = classify_oracle(4, 2, w)
        assert outcome.verdict == BINOMIAL
        assert outcome.degree2_rank == 1
        (rel,) = outcome.surviving_binomials
        assert {rel.lhs, rel.rhs} == set(golden.RESTRICTED_CELL_4_2_3214)
        masks = theorem_a_masks(4, 2)
        i = permutation_index(w)
        assert masks.checked >> i & 1 and not masks.failing >> i & 1


def test_criterion_7_coherence():
    with criterion(7, "coherence holds to n=7; the literal rule fails", 10.0):
        for n in range(2, 8):
            for ell in range(n):
                report = verify_coherence(n, ell)
                assert report.ok, (n, ell, report.first_failure())
        literal = verify_coherence(4, 1, rule="literal")
        assert not literal.ok
        failure = next(f for f in literal.failures if f.members == (3, 4))
        assert failure.minimal_rows == ((1, 2),)


def test_criterion_8_classification_equivalences():
    with criterion(8, "zero/binomial/pattern equivalences exact to n=6", 120.0):
        for n in range(3, 7):
            report = cross_validate(n)
            assert report.ok, (n, report.mismatches[:5])
            assert report.binomial_counts() == golden.COUNT_TABLE[n]


def test_criterion_9_principal_family():
    with criterion(9, "A1 members have rank-one ideals; n=4 cells exact", 5.0):
        for n in range(4, 7):
            for ell in range(n):
                family = binomial_members(n, ell)
                for entries, tags in family.items():
                    if TAG_A1 not in tags:
                        continue
                    outcome = classify_oracle(n, ell, entries)
                    assert outcome.verdict == BINOMIAL
                    assert outcome.degree2_rank == 1, (n, ell, entries)
        for ell in range(4):
            for wstr in golden.A1_N4_MEMBERS:
                outcome = classify_oracle(4, ell, parse_permutation(wstr, 4))
                (rel,) = outcome.surviving_binomials
                assert {rel.lhs, rel.rhs} == set(golden.A1_N4_SUPPORT), (ell, wstr)


def test_criterion_10_degree2_equality_n4():
    with criterion(10, "initial degree-two equality over all monomial-free n<=4", 60.0):
        report = run_theorem_a(4)
        assert report.ok, report.mismatches[:5]
        assert report.checked == sum(
            golden.COUNT_TABLE[n][ell] + zero_family_size(n)
            for n in (3, 4)
            for ell in range(n)
        )


@pytest.mark.slow
def test_criterion_10_degree2_equality_n5_slow():
    with criterion(10, "initial degree-two equality at n=5 (slow mode)", 600.0):
        report = run_theorem_a(5, cap=5)
        assert report.ok, report.mismatches[:5]


@pytest.mark.slow
def test_criterion_10_degree2_equality_n6_slow():
    with criterion(10, "initial degree-two equality at n=6 (slow mode)", 600.0):
        report = run_theorem_a(6, cap=6)
        assert report.ok, report.mismatches[:5]
        assert report.checked == 938
        at_n6 = sum(golden.COUNT_TABLE[6][ell] + zero_family_size(6) for ell in range(6))
        assert at_n6 == 690
        assert report.checked - at_n6 == run_theorem_a(5, cap=5).checked


@pytest.mark.slow
def test_criterion_10_degree2_equality_n7_slow():
    with criterion(10, "initial degree-two equality at n=7 (slow mode)", 600.0):
        report = run_theorem_a(7, cap=7)
        assert report.ok, report.mismatches[:5]
        assert report.checked == 3556
        at_n7 = sum(golden.COUNT_TABLE[7][ell] + zero_family_size(7) for ell in range(7))
        assert report.checked - at_n7 == 938


@pytest.mark.slow
def test_criterion_10_degree2_equality_n8_slow():
    # pinned after the per-w block sweep and the bitset sweep agreed
    with criterion(10, "initial degree-two equality at n=8 (slow mode)", 600.0):
        report = run_theorem_a(8, cap=8)
        assert report.ok, report.mismatches[:5]
        assert report.checked == 13566
        at_n8 = sum(golden.COUNT_TABLE[8][ell] + zero_family_size(8) for ell in range(8))
        assert at_n8 == 10010
        assert report.checked - at_n8 == 3556


def test_criterion_11_bijection_suite():
    with criterion(11, "tableau bijection suite over the pattern family, n<=5", 120.0):
        checked = 0
        for n in range(3, 6):
            for ell in range(n):
                for w in itertools.permutations(range(1, n + 1)):
                    if not in_pattern_family(w, ell):
                        continue
                    report = verify_bijection(n, ell, w)
                    assert report.ok, (n, ell, word_text(w), report.failures[:3])
                    assert report.standard_count == report.row_class_count
                    checked += 1
        assert checked == sum(
            golden.COUNT_TABLE[n][ell] + zero_family_size(n)
            for n in (3, 4, 5)
            for ell in range(n)
        )


@pytest.mark.slow
def test_criterion_11_tableaux_suite_n6_slow():
    with criterion(11, "tableaux suite exhaustive at n=6 (slow mode)", 600.0):
        report = run_tableaux(6)
        assert report.ok, report.mismatches[:5]
        # pinned after the per-w implementation agreed (ok, 230977 checks)
        assert report.checked == 230977


@pytest.mark.slow
def test_criterion_11_tableaux_suite_n7_slow():
    with criterion(11, "tableaux suite exhaustive at n=7 (slow mode)", 600.0):
        report = run_tableaux(7)
        assert report.ok, report.mismatches[:5]
        # pinned after the per-w implementation agreed (ok, 2890995 checks)
        assert report.checked == 2890995


def test_criterion_12_standardness_two_columns():
    with criterion(12, "standardness = column domination for 312-free w, n<=5", 120.0):
        for n in range(3, 6):
            tableaux = list(enumerate_ssyt2(n))
            for w in itertools.permutations(range(1, n + 1)):
                if not is_312_free(w):
                    continue
                vanset = vanishing_keys(w)
                for t in tableaux:
                    dominated = all(c not in vanset for c in t)
                    assert is_standard(n, t, w) == dominated, (n, word_text(w), t)
