import itertools
import math

import pytest

from mfl import coherence, golden
from mfl.coherence import (
    CoherenceFailure,
    CoherenceReport,
    _placement_weights,
    _rule_placement,
    _subset_minima,
    verify_coherence,
    weight_matrix,
)
from mfl.matchfield import display_key, weight_key
from mfl.permcomb import MAX_N, all_index_keys
from per_w_reference import variable_image_key


def plucker_weight_oracle(n, ell, members):
    """Minimum weight over all |J|! placements of J into rows 1..|J|."""
    return min(_placement_weights(n, ell, members).values())


def reference_verify_coherence(n, ell, rule="corrected"):
    """The enumeration oracle for verify_coherence: for every index set J,
    weigh all |J|! placements and report J unless the minimum is attained
    once, at the rule's placement."""
    if not 0 <= ell <= n - 1:
        raise ValueError(f"ell must be in 0..{n - 1}, got {ell}")
    failures = []
    checked = 0
    for size in range(1, n):
        for members in itertools.combinations(range(1, n + 1), size):
            checked += 1
            weights = _placement_weights(n, ell, members)
            best = min(weights.values())
            argmin = tuple(sorted(rows for rows, v in weights.items() if v == best))
            expected = _rule_placement(ell, members, rule)
            if len(argmin) != 1 or argmin[0] != expected:
                failures.append(
                    CoherenceFailure(
                        members=members,
                        expected_rows=expected,
                        minimal_rows=argmin,
                        tie=len(argmin) > 1,
                    )
                )
    return CoherenceReport(n, ell, rule, checked, tuple(failures))


def bitmask(members):
    return sum(1 << (v - 1) for v in members)


def swap_tag(n, ell, members):
    """("swap12", -1) when B_ell transposes rows 1 and 2 of P_J, else ("id", 1)."""
    tag = "id" if display_key(n, ell, members) == members else "swap12"
    return tag, variable_image_key(n, ell, members)[1]


def image(n, ell, monomial):
    """Sorted cells and sign of the image of a product of variables."""
    cells, sign = [], 1
    for members in monomial:
        c, s = variable_image_key(n, ell, members)
        cells.extend(c)
        sign *= s
    return sorted(cells), sign


class TestPlacementRule:
    def test_examples(self):
        assert swap_tag(4, 2, (1, 3)) == ("swap12", -1)
        assert swap_tag(4, 2, (3, 4)) == ("id", 1)
        for n in (3, 5):
            for k in all_index_keys(n):
                assert swap_tag(n, 0, k) == ("id", 1)

    def test_identity_inside_blocks(self):
        # sets inside either block, and singletons, are never swapped
        for n in range(2, 7):
            for ell in range(n):
                for k in all_index_keys(n):
                    tag, _ = swap_tag(n, ell, k)
                    low = sum(1 for v in k if v <= ell)
                    if len(k) == 1 or low == 0 or low == len(k) or low >= 2:
                        assert tag == "id", (n, ell, k)

    def test_append_large_invariance(self):
        # appending values above the second-smallest never changes the tag
        for n in range(3, 7):
            for ell in range(n):
                for k in all_index_keys(n):
                    if len(k) < 2 or n in k:
                        continue
                    with_n = tuple(sorted(k + (n,)))
                    if len(with_n) > n - 1:
                        continue
                    assert swap_tag(n, ell, k)[0] == swap_tag(n, ell, with_n)[0]

    def test_displays_match_reference(self):
        displays = tuple(display_key(4, 2, k) for k in all_index_keys(4))
        assert displays == golden.DISPLAYS_N4_ELL2

    def test_diagonal_displays_sorted(self):
        for k in all_index_keys(4):
            assert display_key(4, 0, k) == k

    def test_validation(self):
        # verify_coherence takes the cut directly and checks its range
        with pytest.raises(ValueError, match=r"ell must be in 0\.\.3, got 4"):
            verify_coherence(4, 4)
        with pytest.raises(ValueError, match=r"ell must be in 0\.\.3, got -1"):
            verify_coherence(4, -1)
        with pytest.raises(ValueError, match=r"ell must be in 0\.\.-1, got 0"):
            verify_coherence(0, 0)
        # the subset tables have 2^n entries; n past MAX_N is refused first
        with pytest.raises(ValueError, match=r"n must be at most 16, got 17"):
            verify_coherence(MAX_N + 1, 0)


class TestWeightMatrix:
    def test_examples(self):
        assert weight_matrix(4, 2) == (
            (0, 0, 0, 0),
            (2, 1, 4, 3),
            (8, 6, 4, 2),
            (12, 9, 6, 3),
        )
        assert weight_matrix(4, 0)[1] == (4, 3, 2, 1)
        for ell in range(5):
            assert weight_matrix(5, ell)[2] == (10, 8, 6, 4, 2)


class TestWeights:
    def test_examples(self):
        assert weight_key(4, 2, (3,)) == 0
        assert weight_key(4, 2, (3, 4)) == 3
        assert weight_key(4, 2, (1, 2)) == 1

    def test_closed_form_matches_min_oracle(self):
        for n in range(2, 8):
            for ell in range(n):
                for k in all_index_keys(n):
                    assert weight_key(n, ell, k) == plucker_weight_oracle(n, ell, k), (
                        n, ell, k,
                    )
        # ... and the subset minima, further than enumeration reaches
        for n in range(2, 11):
            for ell in range(n):
                best, _ = _subset_minima(n, ell)
                for k in all_index_keys(n):
                    assert weight_key(n, ell, k) == best[bitmask(k)], (n, ell, k)

    def test_printed_vector_is_a_misprint(self):
        # the vector printed next to both n = 4 matrices matches neither
        for ell in (0, 2):
            derived = tuple(weight_key(4, ell, k) for k in all_index_keys(4))
            assert derived != golden.WEIGHT_VECTOR_PRINTED_N4
        # ... and for ell = 2 the only wrong entry is P_24
        derived = tuple(weight_key(4, 2, k) for k in all_index_keys(4))
        diffs = [
            i for i, (a, b) in enumerate(zip(derived, golden.WEIGHT_VECTOR_PRINTED_N4))
            if a != b
        ]
        assert diffs == [all_index_keys(4).index((2, 4))]


class TestCoherence:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_corrected_rule_everywhere(self, n):
        for ell in range(n):
            report = verify_coherence(n, ell)
            assert report.ok, report.first_failure()

    def test_literal_rule_fails(self):
        report = verify_coherence(4, 1, rule="literal")
        assert not report.ok
        members = {f.members for f in report.failures}
        assert (3, 4) in members
        failure = next(f for f in report.failures if f.members == (3, 4))
        assert not failure.tie
        assert failure.minimal_rows == ((1, 2),)  # identity placement wins

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            verify_coherence(3, 1, rule="bogus")

    @pytest.mark.parametrize("rule", ["corrected", "literal"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_enumeration(self, n, rule):
        for ell in range(n):
            assert verify_coherence(n, ell, rule) == reference_verify_coherence(
                n, ell, rule
            ), (n, ell, rule)

    @pytest.mark.slow
    @pytest.mark.parametrize("rule", ["corrected", "literal"])
    def test_matches_enumeration_n8_slow(self, rule):
        for ell in range(8):
            assert verify_coherence(8, ell, rule) == reference_verify_coherence(
                8, ell, rule
            ), (ell, rule)

    def test_placements_enumerated_only_for_failures(self, monkeypatch):
        calls = []

        def counted(n, ell, members):
            calls.append(members)
            return _placement_weights(n, ell, members)

        monkeypatch.setattr(coherence, "_placement_weights", counted)
        for n in range(1, 8):
            for ell in range(n):
                assert verify_coherence(n, ell).ok
        assert calls == []
        literal = verify_coherence(4, 1, rule="literal")
        assert calls == [f.members for f in literal.failures] != []

    def test_ties_are_counted(self, monkeypatch):
        # under a zero matrix every placement of J is minimal: |J|! ways
        monkeypatch.setattr(
            coherence, "weight_matrix", lambda n, ell: ((0,) * n,) * n
        )
        best, ways = _subset_minima(5, 2)
        assert set(best) == {0}
        assert ways == [math.factorial(s.bit_count()) for s in range(1 << 5)]
        report = verify_coherence(5, 2)
        assert report == reference_verify_coherence(5, 2)
        assert [f.members for f in report.failures] == [
            k for k in all_index_keys(5) if len(k) >= 2
        ]
        assert all(f.tie for f in report.failures)


class TestGridImage:
    def test_diagonal_example(self):
        assert image(4, 0, [(1, 2, 4), (2, 3)]) == (
            [(1, 1), (1, 2), (2, 2), (2, 3), (3, 4)], 1,
        )

    def test_block_example(self):
        # ell = 2 reproduces the worked product with one swapped column
        assert image(4, 2, [(1, 3, 4), (1, 2)]) == (
            [(1, 1), (1, 3), (2, 1), (2, 2), (3, 4)], -1,
        )

    def test_degree_counts_column_sizes(self):
        cells, _ = image(5, 3, [(1, 2, 4), (2, 5)])
        assert len(cells) == 5
