"""The bitset families against the per-permutation constructions they
replace, and the suite reports against the per-permutation loops."""

import itertools
from functools import lru_cache
from types import MappingProxyType

import pytest

from mask_oracle import binomial_members, reference_families, verdict_items
from mfl import golden, suites, theoremsets
from mfl.cli import parse_permutation
from mfl.permcomb import (
    permutation_index,
    restriction,
    word_text,
    zero_family,
)
from mfl.quadideal import (
    BINOMIAL,
    NONBINOMIAL,
    ZERO,
    classify_oracle,
)
from mfl.theoremsets import (
    TAG_A1,
    TAG_A2,
    TAG_A2P,
    TAG_A3,
    TAG_AT1,
    TAG_AT2,
    TAG_BASE,
    TAG_EXCEPTIONAL,
    count_table,
    cross_validate,
    exceptional_entries,
    family_masks,
)
from per_w_reference import (
    has_descending_property,
    in_pattern_family,
    in_zero_family,
    is_312_free,
    remove_max,
)


@lru_cache(maxsize=64)
def reference_binomial_family(n, ell):
    """The insert-max construction one permutation at a time, recursing on
    itself."""
    if n == 3:
        return MappingProxyType({
            w: frozenset({TAG_BASE})
            for w in itertools.permutations(range(1, 4))
            if classify_oracle(3, ell, w).verdict == BINOMIAL
        })

    t_diag_prev = reference_binomial_family(n - 1, 0)
    if ell == 0:
        t_prev = t_diag_prev
        t_semi_prev = None
    elif ell <= n - 2:
        t_prev = reference_binomial_family(n - 1, ell)
        t_semi_prev = None
    else:
        t_prev = t_diag_prev
        t_semi_prev = reference_binomial_family(n - 1, n - 2)

    excluded = (n - 1, n) + tuple(range(n - 2, 0, -1))
    exceptional = exceptional_entries(n, ell) if 1 <= ell <= n - 2 else None
    result = {}
    for e in itertools.permutations(range(1, n + 1)):
        ule = remove_max(e)
        t = e.index(n) + 1
        s = e.index(n - 1) + 1
        tags = set()
        if in_zero_family(ule) and e[-1] == n - 2 and {e[-3], e[-2]} == {n - 1, n}:
            tags.add(TAG_A1)
        if ell == 0:
            if ule in t_prev and has_descending_property(ule) and t >= s - 1:
                tags.add(TAG_A2)
        elif ell <= n - 2:
            if ule in t_prev:
                if has_descending_property(ule) and t >= s - 1 and e != excluded:
                    tags.add(TAG_A2P)
                if not has_descending_property(ule) and t >= s + 2:
                    tags.add(TAG_A3)
            if e == exceptional:
                tags.add(TAG_EXCEPTIONAL)
        else:
            in_diag = ule in t_diag_prev
            in_semi = ule in t_semi_prev
            if (
                in_diag
                and in_semi
                and has_descending_property(ule)
                and t >= s - 1
                and e != excluded
            ):
                tags.add(TAG_AT1)
            if in_diag and not in_semi and t >= s + 1:
                tags.add(TAG_AT2)
        if tags:
            result[e] = frozenset(tags)
    return MappingProxyType(result)


def pairs(n_max):
    return [(n, ell) for n in range(3, n_max + 1) for ell in range(n)]


class TestFamilyMasks:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_run_build_matches_per_w_build(self, n):
        assert theoremsets._families(n) == reference_families(n)

    @pytest.mark.slow
    def test_run_build_matches_per_w_build_n9_slow(self):
        assert theoremsets._families(9) == reference_families(9)

    def test_build_enumerates_no_s_n(self, monkeypatch):
        sizes = []
        permutations = itertools.permutations

        def counted(iterable, *args):
            items = tuple(iterable)
            sizes.append(len(items))
            return permutations(items, *args)

        monkeypatch.setattr(itertools, "permutations", counted)
        theoremsets._families.cache_clear()
        theoremsets._families(7)
        # the oracle seed at n = 3 may enumerate S_3, nothing larger is read
        assert all(size <= 3 for size in sizes), sizes

    @pytest.mark.parametrize("n, ell", pairs(7))
    def test_binomial_family_matches_reference(self, n, ell):
        fast, slow = binomial_members(n, ell), reference_binomial_family(n, ell)
        assert list(fast.items()) == list(slow.items())

    @pytest.mark.slow
    @pytest.mark.parametrize("ell", range(8))
    def test_binomial_family_matches_reference_n8_slow(self, ell):
        fast, slow = binomial_members(8, ell), reference_binomial_family(8, ell)
        assert list(fast.items()) == list(slow.items())

    @pytest.mark.parametrize("n", range(3, 8))
    def test_pattern_mask_matches_scalar_test(self, n):
        for ell in range(n):
            pattern = family_masks(n, ell).pattern
            for i, w in enumerate(itertools.permutations(range(1, n + 1))):
                assert bool(pattern >> i & 1) == in_pattern_family(w, ell), (ell, w)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_zero_mask_matches_zero_family(self, n):
        expected = sum(1 << permutation_index(w) for w in zero_family(n))
        for ell in range(n):
            assert family_masks(n, ell).zero == expected

    @pytest.mark.parametrize("n", range(3, 8))
    def test_free_312_and_descending_masks(self, n):
        masks = family_masks(n, 0)
        for i, w in enumerate(itertools.permutations(range(1, n + 1))):
            assert bool(masks.free_312 >> i & 1) == is_312_free(w), w
            assert bool(masks.descending >> i & 1) == has_descending_property(w), w

    def test_input_checks(self):
        with pytest.raises(ValueError, match="n >= 3"):
            family_masks(2, 0)
        with pytest.raises(ValueError, match=r"ell must be in 0\.\.3, got 4"):
            family_masks(4, 4)

    @pytest.mark.slow
    def test_n8_count_row_three_ways_slow(self):
        # pinned only because the three computations agree
        for ell, expected in enumerate(golden.COUNT_TABLE[8]):
            assert family_masks(8, ell).binomial.bit_count() == expected
            assert len(reference_binomial_family(8, ell)) == expected
            verdicts = verdict_items(8, ell, bound=8)
            assert sum(v == BINOMIAL for _, v in verdicts) == expected, ell


# ---------------------------------------------------------------------------
# Suite reports against the per-permutation loops
#
# The loops below are the per-w bodies the bitset walks replace.  They read
# the families through the predicates of a ``Families`` object, so the same
# perturbation can be applied to both sides.


class Families:
    """The scalar family tests, with the membership of listed permutations
    flipped: ``binomial`` and ``pattern`` map (n, ell) to entries, ``zero``
    maps n to entries."""

    def __init__(self, binomial=(), pattern=(), zero=()):
        self.binomial = dict(binomial)
        self.pattern = dict(pattern)
        self.zero = dict(zero)

    def in_t(self, n, ell, e):
        return (e in reference_binomial_family(n, ell)) != (
            e in self.binomial.get((n, ell), ())
        )

    def in_z(self, e):
        return in_zero_family(e) != (e in self.zero.get(len(e), ()))

    def in_p(self, w, ell):
        flipped = w in self.pattern.get((len(w), ell), ())
        return in_pattern_family(w, ell) != flipped

    def family(self, n, ell):
        return [e for e in itertools.permutations(range(1, n + 1)) if self.in_t(n, ell, e)]

    @staticmethod
    def bits(table, key):
        return sum(1 << permutation_index(e) for e in table.get(key, ()))

    def patch(self, monkeypatch):
        """Apply the same flips to :func:`family_masks`."""
        original = theoremsets.family_masks

        def perturbed(n, ell):
            masks = original(n, ell)
            return masks._replace(
                binomial=masks.binomial ^ self.bits(self.binomial, (n, ell)),
                pattern=masks.pattern ^ self.bits(self.pattern, (n, ell)),
                zero=masks.zero ^ self.bits(self.zero, n),
            )

        # the suites import family_masks from theoremsets when they run
        monkeypatch.setattr(theoremsets, "family_masks", perturbed)


def reference_cross_validate(n, fam):
    mismatches = []
    counts = []
    for ell in range(n):
        family = fam.family(n, ell)
        tally = {ZERO: 0, BINOMIAL: 0, NONBINOMIAL: 0}
        for w, verdict in verdict_items(n, ell):
            tally[verdict] += 1
            predicted = (
                ZERO
                if fam.in_z(w)
                else BINOMIAL
                if w in family
                else NONBINOMIAL
            )
            if predicted != verdict:
                mismatches.append({"kind": "class", "ell": ell, "w": word_text(w),
                                   "oracle": verdict, "combinatorial": predicted})
            pattern = fam.in_p(w, ell)
            if pattern != (verdict != NONBINOMIAL):
                mismatches.append({"kind": "pattern", "ell": ell, "w": word_text(w),
                                   "oracle": verdict, "in_pattern_family": pattern})
        allowed = [exceptional_entries(n, ell)] if 1 <= ell <= n - 2 else []
        for e in family:
            if not has_descending_property(e) and e not in allowed:
                mismatches.append({"kind": "descending-exception", "ell": ell,
                                   "w": word_text(e)})
        counts.append((ell, tally))
    return tuple(counts), tuple(mismatches)


def reference_run_theorem_b(n_max, fam):
    report = suites.SuiteReport("theoremB")
    for n in range(3, n_max + 1):
        for ell in range(n):
            for w, verdict in verdict_items(n, ell):
                report.checked += 1
                if (verdict == ZERO) != fam.in_z(w):
                    report.record(n=n, ell=ell, w=word_text(w), verdict=verdict)
    return report


def reference_run_theorem_c(n_max, combinatorial_n_max, fam):
    report = suites.SuiteReport("theoremC")
    for n in range(3, n_max + 1):
        counts, mismatches = reference_cross_validate(n, fam)
        report.checked += sum(sum(c.values()) for _, c in counts)
        for m in mismatches:
            if m["kind"] in ("class", "descending-exception"):
                report.record(n=n, **m)
    for n in range(3, combinatorial_n_max + 1):
        for ell in range(n):
            for w in itertools.permutations(range(1, n + 1)):
                report.checked += 1
                in_t = fam.in_t(n, ell, w)
                in_z = fam.in_z(w)
                if in_t and in_z:
                    report.record(n=n, ell=ell, w=word_text(w),
                                  detail="binomial and zero families overlap")
                if (in_t or in_z) != fam.in_p(w, ell):
                    report.record(n=n, ell=ell, w=word_text(w),
                                  detail="T union Z differs from pattern family")
    return report


def reference_run_pattern(n_max, combinatorial_n_max, fam):
    report = suites.SuiteReport("P")
    for n in range(3, n_max + 1):
        for ell in range(n):
            for w, verdict in verdict_items(n, ell):
                report.checked += 1
                if fam.in_p(w, ell) != (verdict != NONBINOMIAL):
                    report.record(n=n, ell=ell, w=word_text(w), verdict=verdict)
    for n in range(3, combinatorial_n_max + 1):
        for w in itertools.permutations(range(1, n + 1)):
            for ell in range(1, n):
                if not fam.in_p(w, ell):
                    continue
                report.checked += 1
                for i, j, k in itertools.combinations(range(n), 3):
                    if w[j] < w[k] < w[i]:
                        if i != 0 or w[j] != ell:
                            report.record(n=n, ell=ell, w=word_text(w),
                                          detail="312 pattern not anchored at (w_1, ell)")
                if not is_312_free(w):
                    expected = (w[0], ell) + tuple(
                        v for v in range(w[0] - 1, 0, -1) if v != ell
                    )
                    if restriction(w, w[0]) != expected:
                        report.record(n=n, ell=ell, w=word_text(w),
                                      detail="restriction to w_1 has unexpected shape")
    return report


def perm(text):
    return parse_permutation(text, len(text))


PERTURBED = Families(
    # 2431 is non-binomial, 1423 also lacks the descending property; 3214
    # and 31254 are binomial
    binomial={(4, 2): [perm("2431"), perm("1423"), perm("3214")],
              (5, 0): [perm("31254")], (5, 4): [perm("52341")]},
    # 4231 is in P_2, 2431 is not; 51432 is in P_1; 35412 and 42135 have
    # an unanchored 312, and 42135 the wrong restriction to w_1
    pattern={(4, 2): [perm("4231"), perm("2431")],
             (5, 1): [perm("51432"), perm("35412")], (5, 2): [perm("42135")]},
    # 1234 leaves Z_4; 3214 joins it and overlaps T_{4, ell}
    zero={4: [perm("1234"), perm("3214")], 5: [perm("21435")]},
)


@pytest.mark.parametrize("perturbed", [False, True], ids=["exact", "perturbed"])
class TestReportsMatchLoops:
    def families(self, perturbed, monkeypatch):
        if not perturbed:
            return Families()
        PERTURBED.patch(monkeypatch)
        return PERTURBED

    @pytest.mark.parametrize("n", [4, 5])
    def test_cross_validate(self, perturbed, n, monkeypatch):
        fam = self.families(perturbed, monkeypatch)
        report = cross_validate(n)
        assert (report.counts, report.mismatches) == reference_cross_validate(n, fam)
        assert report.ok == (not perturbed)

    def test_run_theorem_b(self, perturbed, monkeypatch):
        fam = self.families(perturbed, monkeypatch)
        report = suites.run_theorem_b(5)
        assert report == reference_run_theorem_b(5, fam)
        assert report.ok == (not perturbed)

    def test_run_theorem_c(self, perturbed, monkeypatch):
        fam = self.families(perturbed, monkeypatch)
        monkeypatch.setattr(suites, "COMBINATORIAL_N_MAX", 5)
        report = suites.run_theorem_c(5)
        assert report == reference_run_theorem_c(5, 5, fam)
        assert report.ok == (not perturbed)

    def test_run_pattern(self, perturbed, monkeypatch):
        fam = self.families(perturbed, monkeypatch)
        monkeypatch.setattr(suites, "COMBINATORIAL_N_MAX", 5)
        report = suites.run_pattern(5)
        assert report == reference_run_pattern(5, 5, fam)
        assert report.ok == (not perturbed)


@pytest.mark.slow
@pytest.mark.parametrize("n, c_checks, p_checks", [
    (9, 3628812, 45150),
    (10, 39916812, 176866),
], ids=["n9", "n10"])
def test_oracle_free_identities_slow(n, c_checks, p_checks, monkeypatch):
    # past the default range: T and Z are disjoint with union P, and every
    # pattern-family w has its 312s anchored at (w_1, ell); the oracle part
    # runs at n = 3 only
    monkeypatch.setattr(suites, "COMBINATORIAL_N_MAX", n)
    report_c, report_p = suites.run_theorem_c(3), suites.run_pattern(3)
    assert report_c.ok and report_p.ok
    assert (report_c.checked, report_p.checked) == (c_checks, p_checks)


def test_count_table_reports_disagreement(monkeypatch):
    # drop one member of T_{4, 2} from the families only
    dropped = 1 << permutation_index(perm("3214"))
    original = theoremsets.family_masks

    def patched(n, ell):
        masks = original(n, ell)
        if (n, ell) == (4, 2):
            masks = masks._replace(binomial=masks.binomial & ~dropped)
        return masks

    monkeypatch.setattr(theoremsets, "family_masks", patched)
    rows = count_table(3, 5)
    bad = [row for row in rows if row.oracle_counts is not None]
    assert [(row.n, row.ell) for row in bad] == [(4, 2)]
    assert bad[0].binomial_count == golden.COUNT_TABLE[4][2] - 1
    assert bad[0].oracle_counts == (golden.COUNT_TABLE[4][2], 5)


def test_a1_rank_mismatch_w_is_a_digit_string(monkeypatch):
    # a fake rank of 2 fails every A1 member: the rank-one mask is emptied
    # where the suite decides, and the oracle that writes the record for a
    # failing member reports rank 2; w is text, as elsewhere
    real = suites.classify_oracle

    def rank_two(n, ell, w):
        return real(n, ell, w)._replace(degree2_rank=2)

    monkeypatch.setattr(suites, "rank_one_mask", lambda n, ell: 0)
    monkeypatch.setattr(suites, "classify_oracle", rank_two)
    report = suites.run_a1_rank(4)
    assert report.checked == len(report.mismatches) > 0
    assert {m["w"] for m in report.mismatches} == set(golden.A1_N4_MEMBERS)
    assert {(m["verdict"], m["rank"]) for m in report.mismatches} == {(BINOMIAL, 2)}


def reference_run_a1_rank(n_max):
    """run_a1_rank as it was before the rank-one mask: one oracle call per
    A1 member."""
    report = suites.SuiteReport("a1_rank")
    for n in range(4, n_max + 1):
        for ell in range(n):
            for w, tags in binomial_members(n, ell).items():
                if TAG_A1 not in tags:
                    continue
                report.checked += 1
                outcome = classify_oracle(n, ell, w)
                if outcome.verdict != BINOMIAL or outcome.degree2_rank != 1:
                    report.record(n=n, ell=ell, w=word_text(w),
                                  verdict=outcome.verdict,
                                  rank=outcome.degree2_rank)
    return report


def test_a1_rank_matches_reference_with_a_flipped_bit(monkeypatch):
    # clearing one A1 member's bit in the rank-one mask fails that member
    # only, with the record the per-member loop writes for the real oracle
    real = suites.rank_one_mask
    dropped = permutation_index(perm("1342"))

    def patched(n, ell):
        return real(n, ell) & ~(1 << dropped) if (n, ell) == (4, 2) else real(n, ell)

    monkeypatch.setattr(suites, "rank_one_mask", patched)
    report = suites.run_a1_rank(5)
    assert report.checked == reference_run_a1_rank(5).checked
    assert report.mismatches == [
        dict(n=4, ell=2, w="1342", verdict=BINOMIAL, rank=1)
    ]
    monkeypatch.undo()
    assert suites.run_a1_rank(6) == reference_run_a1_rank(6)
