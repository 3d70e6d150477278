import itertools

import pytest

from mask_oracle import binomial_members
from mfl import golden
from mfl.theoremsets import (
    CLASS_N,
    CLASS_T,
    CLASS_Z,
    TAG_A1,
    TAG_EXCEPTIONAL,
    classify_combinatorial,
    count_table,
    cross_validate,
    exceptional_entries,
)
from per_w_reference import in_pattern_family, in_zero_family


def strings(entries_iterable):
    return sorted("".join(map(str, e)) for e in entries_iterable)


class TestBinomialFamily:
    def test_base_case_matches_reference(self):
        assert strings(binomial_members(3, 0)) == ["231", "321"]
        assert strings(binomial_members(3, 1)) == ["312", "321"]
        assert strings(binomial_members(3, 2)) == ["321"]

    def test_n4_matches_reference(self):
        for ell in range(4):
            assert strings(binomial_members(4, ell)) == sorted(
                golden.TORIC_LISTS_N4[ell]
            )

    def test_cardinalities(self):
        for n, counts in golden.COUNT_TABLE.items():
            for ell, expected in enumerate(counts):
                assert len(binomial_members(n, ell)) == expected, (n, ell)

    def test_a1_members_n4(self):
        for ell in range(4):
            family = binomial_members(4, ell)
            a1 = {e for e, tags in family.items() if TAG_A1 in tags}
            assert strings(a1) == list(golden.A1_N4_MEMBERS)

    def test_exceptional_tagged(self):
        family = binomial_members(4, 2)
        assert TAG_EXCEPTIONAL in family[(4, 2, 3, 1)]
        family5 = binomial_members(5, 1)
        assert TAG_EXCEPTIONAL in family5[(5, 1, 4, 3, 2)]

    def test_validation(self):
        with pytest.raises(ValueError):
            binomial_members(2, 0)
        with pytest.raises(ValueError):
            binomial_members(4, 4)

    def test_exceptional_entries(self):
        assert exceptional_entries(4, 2) == (4, 2, 3, 1)
        assert exceptional_entries(5, 1) == (5, 1, 4, 3, 2)
        assert exceptional_entries(6, 3) == (6, 3, 5, 4, 2, 1)
        with pytest.raises(ValueError):
            exceptional_entries(5, 4)


class TestPatternFamily:
    def test_examples(self):
        assert in_pattern_family((4, 2, 3, 1), 2)
        assert not in_pattern_family((2, 4, 3, 1), 2)
        for n in (3, 4, 5):
            for ell in range(n):
                assert in_pattern_family(tuple(range(1, n + 1)), ell)

    def test_diagonal_convention_is_312_freeness(self):
        from per_w_reference import is_312_free

        for w in itertools.permutations(range(1, 6)):
            assert in_pattern_family(w, 0) == is_312_free(w)

    def test_union_identity(self):
        # pattern family = zero family union binomial family, oracle-free
        for n in range(3, 8):
            for ell in range(n):
                family = binomial_members(n, ell)
                for w in itertools.permutations(range(1, n + 1)):
                    expected = in_zero_family(w) or w in family
                    assert in_pattern_family(w, ell) == expected, (n, ell, w)

    def test_families_disjoint(self):
        for n in range(3, 7):
            for ell in range(n):
                for e in binomial_members(n, ell):
                    assert not in_zero_family(e)

    def test_range_check(self):
        with pytest.raises(ValueError):
            in_pattern_family((1, 2, 3), 3)
        with pytest.raises(ValueError, match=r"not a permutation of \[3\]"):
            in_pattern_family((1, 1, 2), 0)


class TestClassifyCombinatorial:
    def test_record_invariants(self):
        for n in (3, 4, 5):
            for ell in range(n):
                for w in itertools.permutations(range(1, n + 1)):
                    record = classify_combinatorial(n, ell, w)
                    if record.combinatorial_class in (CLASS_Z, CLASS_T):
                        assert record.in_pattern
                    else:
                        assert not record.in_pattern
                    assert bool(record.witness_tags) == (
                        record.combinatorial_class == CLASS_T
                    )

    def test_predicted_verdicts(self):
        record = classify_combinatorial(4, 2, (3, 2, 1, 4))
        assert record.combinatorial_class == CLASS_T
        assert record.w == (3, 2, 1, 4)
        assert classify_combinatorial(
            4, 2, (1, 2, 3, 4)
        ).combinatorial_class == CLASS_Z
        assert classify_combinatorial(
            4, 2, (2, 4, 3, 1)
        ).combinatorial_class == CLASS_N

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError, match="permutation length 3 does not match n = 4"):
            classify_combinatorial(4, 2, (3, 2, 1))
        with pytest.raises(ValueError, match=r"not a permutation of \[4\]: \(3, 3, 1, 4\)"):
            classify_combinatorial(4, 2, (3, 3, 1, 4))


class TestCrossValidation:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_no_mismatches(self, n):
        report = cross_validate(n)
        assert report.ok, report.mismatches[:5]
        assert report.binomial_counts() == golden.COUNT_TABLE[n]

    @pytest.mark.slow
    def test_no_mismatches_n8_slow(self):
        # the zero, pattern and descending-exception checks at n = 8
        report = cross_validate(8, oracle_bound=8)
        assert report.ok, report.mismatches[:5]
        assert report.binomial_counts() == golden.COUNT_TABLE[8]

    @pytest.mark.slow
    def test_no_mismatches_n9_slow(self):
        # every cut of n = 9; the binomial row is where the bitset families,
        # this kernel and the insert-max construction one w at a time agreed
        report = cross_validate(9, oracle_bound=9)
        assert report.ok, report.mismatches[:5]
        assert report.binomial_counts() == (4807, 3806, 3377, 3509, 3938, 4358, 4631, 4759, 4800)


class TestCountTable:
    def test_rows_match_reference(self):
        rows = count_table(3, 5)
        by_cell = {(r.n, r.ell): r for r in rows}
        for n in (3, 4, 5):
            for ell in range(n):
                row = by_cell[(n, ell)]
                assert row.binomial_count == golden.COUNT_TABLE[n][ell]
                assert row.zero_count == len(
                    [w for w in itertools.permutations(range(1, n + 1)) if in_zero_family(w)]
                )
                total = row.binomial_count + row.zero_count + row.nonbinomial_count
                assert total == len(list(itertools.permutations(range(1, n + 1))))

    def test_n7_rows(self):
        rows = count_table(7, 7)
        assert len(rows) == 7
        assert all(r.binomial_count > 0 and r.oracle_counts is None for r in rows)

    def test_printed_total_discrepancy_is_flagged(self):
        # the printed n = 5 total differs from the computed row sum
        assert sum(golden.COUNT_TABLE[5]) == 144
        assert golden.COUNT_TABLE_PRINTED_TOTALS[5] == 114
        # and the printed n = 3 row differs from the one its ideals force
        assert golden.COUNT_TABLE[3] == (2, 2, 1)
        assert golden.COUNT_TABLE_PRINTED_N3 == (2, 1, 2)
