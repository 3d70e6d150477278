import itertools
import math
import tracemalloc
from functools import lru_cache, reduce
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from mfl import cli, suites, tableaux
from mfl.matchfield import display_key, image_code
from mfl.permcomb import (
    _alive_masks,
    all_index_keys,
    bruhat_leq,
    bruhat_up_set,
    permutation_at,
    permutation_index,
    set_bits,
    vanishing_keys,
    word_text,
)
from mfl.quadideal import CapabilityError
from mfl.tableaux import (
    BijectionReport,
    _add,
    _bijection_table,
    _bit_count,
    _counters_differ,
    _level,
    bijection_failing_mask,
    check_tableau,
    enumerate_ssyt2,
    min_defining_chain2,
    min_defining_chain2_exhaustive,
    ssyt_to_matching_field,
    verify_bijection,
)
from mfl.theoremsets import family_masks
from per_w_reference import (
    in_pattern_family,
    is_312_free,
    is_standard,
    standard_monomial_count_deg2,
    variable_image_key,
)


# ---------------------------------------------------------------------------
# Reference: row-wise equality by row multisets, which the image codes replace


def mf_display(n, ell, columns):
    """The matching-field tableau of ``columns``: each column in B_ell order."""
    return tuple(display_key(n, ell, col) for col in columns)


def rows(display):
    """Row multisets of a displayed tableau, each sorted."""
    return tuple(
        tuple(sorted(col[r] for col in display if len(col) > r))
        for r in range(len(display[0]))
    )


def row_equal(d1, d2):
    """Equal per-row entry multisets; False on shape mismatch."""
    if [len(c) for c in d1] != [len(c) for c in d2]:
        return False
    return rows(d1) == rows(d2)


class TestTableau:
    def test_ssyt_validation(self):
        check_tableau(4, ((1, 2), (1, 2)))
        check_tableau(4, ((1, 2, 3),))
        for columns, message in (
            (((1, 3), (1, 2)), "rows must weakly increase"),
            (((1,), (1, 2)), "sizes must weakly decrease"),
            (((1, 2, 3, 4),), "proper non-empty subset"),
            (((1, 5), (2,)), r"subset of \[4\]"),
            (((0, 2), (1,)), r"subset of \[4\]"),
            (((2, 1), (1,)), "strictly increasing"),
            ((), "at least one column"),
        ):
            with pytest.raises(ValueError, match=message):
                check_tableau(4, columns)

    def test_entry_points_check(self):
        # [23|1] is not semi-standard; the per-tableau entry points refuse it
        columns = ((2, 3), (1,))
        with pytest.raises(ValueError, match="rows must weakly increase"):
            min_defining_chain2(4, columns)
        with pytest.raises(ValueError, match="rows must weakly increase"):
            is_standard(4, columns, (4, 3, 2, 1))
        with pytest.raises(ValueError, match="two-column semi-standard"):
            ssyt_to_matching_field(columns, 1)

    def test_matching_field_kind_skips_row_condition(self):
        # the display of [13|2] for B_1 has the decreasing row 3 | 2
        display = mf_display(4, 1, ((1, 3), (2,)))
        assert display == ((3, 1), (2,))
        assert rows(display) == ((2, 3), (1,))

    def test_ssyt_display_and_rows(self):
        assert rows(((1, 2, 4), (2, 3))) == ((1, 2), (2, 3), (4,))

    def test_render_text(self):
        # the CLI's text form of a tableau
        assert cli._render(((1, 2, 4), (2, 3))) == "1 | 2\n2 | 3\n4"
        assert cli._render(((9, 10), (3,))) == " 9 |  3\n10"


class TestRowEqual:
    def test_examples(self):
        a = ((1, 2), (3,))
        assert row_equal(a, a)
        b = ((1, 3), (2,))
        assert not row_equal(a, b)

    def test_shape_mismatch_is_false(self):
        assert not row_equal(((1, 2), (3,)), ((1, 2),))

    def test_matches_grid_image_fibers(self):
        # for every cut with n <= 5, equal shape matching-field tableaux are
        # row-equal iff their monomials have the same image cells, that is
        # the same image code
        def cells(a, b):
            return sorted(variable_image_key(n, ell, a)[0] + variable_image_key(n, ell, b)[0])

        def code(a, b):
            return image_code(n, ell, a) + image_code(n, ell, b)

        for n in range(2, 6):
            pairs = [
                (a, b)
                for a, b in itertools.combinations_with_replacement(all_index_keys(n), 2)
                if len(a) >= len(b)
            ]
            for ell in range(n):
                items = [(p, mf_display(n, ell, p), cells(*p), code(*p)) for p in pairs]
                for p1, d1, g1, c1 in items:
                    for p2, d2, g2, c2 in items:
                        if [len(c) for c in p1] == [len(c) for c in p2]:
                            assert row_equal(d1, d2) == (g1 == g2) == (c1 == c2), (
                                n, ell, p1, p2)


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_ssyt2(3, (3, 2, 1)))) == 20
        assert len(list(enumerate_ssyt2(3))) == 20
        assert len(list(enumerate_ssyt2(5))) == 399

    def test_identity_filter(self):
        assert set(enumerate_ssyt2(3, (1, 2, 3))) == {
            ((1,), (1,)),
            ((1, 2), (1,)),
            ((1, 2), (1, 2)),
        }

    def test_shape_example(self):
        assert ((1, 2), (3,)) in enumerate_ssyt2(4, (3, 2, 1, 4))

    def test_deterministic_order(self):
        assert list(enumerate_ssyt2(4)) == list(enumerate_ssyt2(4))
        sizes = [(len(left), len(right)) for left, right in enumerate_ssyt2(4)]
        assert sizes == sorted(sizes)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_filter_matches_full_enumeration(self, n):
        # skipping a vanishing left column keeps the order of the full list
        tableaux_n = list(enumerate_ssyt2(n))
        for w in itertools.permutations(range(1, n + 1)):
            vanset = vanishing_keys(w)
            assert list(enumerate_ssyt2(n, w)) == [
                t for t in tableaux_n if all(c not in vanset for c in t)
            ], w

    def test_lazy(self):
        # n = 16 has far too many tableaux to list; the first few come at once
        first = list(itertools.islice(enumerate_ssyt2(16), 5))
        assert first == [((1,), (v,)) for v in range(1, 6)]


class TestRearrangement:
    def test_rectangular_examples(self):
        t = ((1, 3, 5), (2, 4))
        g1 = ssyt_to_matching_field(t, 1)
        assert g1 == ((2, 3, 5), (1, 4))
        assert mf_display(5, 1, g1) == ((2, 3, 5), (4, 1))
        g2 = ssyt_to_matching_field(t, 2)
        assert g2 == ((1, 3, 5), (2, 4))
        assert mf_display(5, 2, g2) == ((3, 1, 5), (4, 2))

    def test_single_row_second_column_examples(self):
        a = ssyt_to_matching_field(((1, 3, 4), (2,)), 1)
        assert a == ((2, 3, 4), (1,))
        assert mf_display(4, 1, a) == ((2, 3, 4), (1,))
        b = ssyt_to_matching_field(((1, 2, 4), (3,)), 1)
        assert b == ((1, 3, 4), (2,))
        assert mf_display(4, 1, b) == ((3, 1, 4), (2,))
        c = ssyt_to_matching_field(((1, 2, 3), (3,)), 1)
        assert c == ((1, 2, 3), (3,))
        assert mf_display(4, 1, c) == ((2, 1, 3), (3,))

    def test_requires_two_column_ssyt(self):
        for columns in (
            ((1, 2),),  # one column
            ((1, 2), (2,), (3,)),  # three columns
            ((1, 3), (1, 2)),  # row 2 decreases
            ((1,), (1, 2)),  # sizes increase
        ):
            with pytest.raises(ValueError, match="two-column semi-standard"):
                ssyt_to_matching_field(columns, 1)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(3, 5), st.data())
    def test_preserves_entry_multiset(self, n, data):
        t = data.draw(st.sampled_from(tuple(enumerate_ssyt2(n))))
        ell = data.draw(st.integers(0, n - 1))
        image = ssyt_to_matching_field(t, ell)
        before = sorted(v for col in t for v in col)
        after = sorted(v for col in image for v in col)
        assert before == after
        assert [len(c) for c in image] == [len(c) for c in t]


class TestStandardMonomialCount:
    def test_examples(self):
        w = (3, 2, 1)
        assert standard_monomial_count_deg2(3, 0, w) == 20
        assert standard_monomial_count_deg2(3, 0, w) == len(list(enumerate_ssyt2(3, w)))

    def test_zero_family_no_collisions(self):
        for n in (3, 4):
            for ell in range(n):
                w = tuple(range(1, n + 1))
                vanset = vanishing_keys(w)
                alive = [k for k in all_index_keys(n) if k not in vanset]
                expected = len(alive) * (len(alive) + 1) // 2
                assert standard_monomial_count_deg2(n, ell, w) == expected


class TestDefiningChains:
    def test_constructive_examples(self):
        chain = min_defining_chain2(4, ((1, 2, 4), (3,)))
        assert [word_text(p) for p in chain] == ["1243", "3142"]
        chain = min_defining_chain2(3, ((1, 3), (2,)))
        assert chain[1] == (2, 3, 1)

    def test_equal_columns(self):
        chain = min_defining_chain2(4, ((1, 3), (2, 4)))
        assert chain[1] == (2, 4, 1, 3)

    def test_single_column(self):
        chain = min_defining_chain2(4, ((2, 3),))
        assert [word_text(p) for p in chain] == ["2314"]

    def test_matches_exhaustive(self):
        for n in (3, 4, 5, 6, 7):
            for t in enumerate_ssyt2(n):
                assert min_defining_chain2(n, t) == min_defining_chain2_exhaustive(n, t), t

    def test_matches_exhaustive_sampled_n9(self):
        # every 50th tableau at n = 9, where the full oracle sweep is too long
        for left, right in itertools.islice(enumerate_ssyt2(9), 0, None, 50):
            chain = min_defining_chain2(9, (left, right))
            assert chain == min_defining_chain2_exhaustive(9, (left, right)), (left, right)
            assert chain[1][:len(right)] == right
            assert set(chain[1][len(right):len(left)]) <= set(left) - set(right)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_grassmannian_up_set_is_one_alive_mask(self, n):
        # the Grassmannian permutation of I has no descent but |I|, so the
        # exhaustive oracle's first up-set is alive[I]
        alive = _alive_masks(n)
        for members in all_index_keys(n):
            v1 = tableaux.grassmannian_permutation(members, n)
            assert bruhat_up_set(v1) == alive[members], members

    def test_bitset_oracle_matches_reference(self):
        for n in (2, 3, 4, 5):
            for t in enumerate_ssyt2(n):
                assert (
                    min_defining_chain2_exhaustive(n, t)
                    == reference_min_defining_chain2(n, t)
                ), t
                single = t[:1]
                assert min_defining_chain2_exhaustive(
                    n, single
                ) == reference_min_defining_chain2(n, single)

    def test_bitset_oracle_raises_with_reference(self):
        # column pairs that are not semi-standard may have no unique minimum
        # chain; both oracles must refuse them
        raised = 0
        for n in (3, 4):
            keys = all_index_keys(n)
            for left, right in itertools.product(keys, repeat=2):
                if len(left) < len(right):
                    continue
                t = (left, right)
                try:
                    expected = reference_min_defining_chain2(n, t)
                except ValueError as exc:
                    raised += 1
                    with pytest.raises(ValueError, match="no unique minimum"):
                        min_defining_chain2_exhaustive(n, t)
                    assert str(exc).startswith("no unique minimum")
                else:
                    assert min_defining_chain2_exhaustive(n, t) == expected
        assert raised > 0

    def test_capability_error(self):
        t = ((1, 2), (1, 2), (1,))
        with pytest.raises(CapabilityError):
            min_defining_chain2(4, t)
        with pytest.raises(CapabilityError):
            is_standard(4, t, (4, 3, 2, 1))


class TestStandardness:
    def test_examples(self):
        assert is_standard(3, ((1, 3), (2,)), (2, 3, 1))
        assert not is_standard(4, ((1, 2, 4), (3,)), (3, 2, 1, 4))

    def test_single_column_matches_domination(self):
        for n in (3, 4):
            for w in itertools.permutations(range(1, n + 1)):
                vanset = vanishing_keys(w)
                for left, _ in enumerate_ssyt2(n):
                    assert is_standard(n, (left,), w) == (left not in vanset)

    def test_two_column_theorem_for_312_free(self):
        for n in (3, 4):
            for w in itertools.permutations(range(1, n + 1)):
                if not is_312_free(w):
                    continue
                vanset = vanishing_keys(w)
                for t in enumerate_ssyt2(n):
                    dominated = all(c not in vanset for c in t)
                    assert is_standard(n, t, w) == dominated, (w, t)

    def test_counterexample_when_not_312_free(self):
        # for w = 312 the below-w tableau [13|2] is not standard
        w = (3, 1, 2)
        t = ((1, 3), (2,))
        vanset = vanishing_keys(w)
        assert all(c not in vanset for c in t)
        assert not is_standard(3, t, w)


class TestVerifyBijection:
    def test_examples(self):
        r = verify_bijection(4, 2, (3, 2, 1, 4))
        assert r.ok and r.in_pattern
        assert r.standard_count == r.row_class_count == r.column_count == 27
        r = verify_bijection(5, 1, (5, 1, 4, 3, 2))
        assert r.ok and r.in_pattern
        assert r.standard_count == r.row_class_count == 169
        r = verify_bijection(3, 0, (3, 2, 1))
        assert r.ok
        assert r.standard_count == r.row_class_count == 20

    def test_column_form_counterexample_reported(self):
        # (3, 1, 312): pattern member with a 312 pattern; the column-form
        # count is 15 against 14 row classes, but the chain form holds
        r = verify_bijection(3, 1, (3, 1, 2))
        assert r.ok
        assert r.standard_count == r.row_class_count == 14
        assert r.column_count == 15
        names = [name for name, _ in r.checks]
        assert "column_count_identity" not in names
        assert "standard_count_identity" in names

    def test_out_of_pattern_family_runs_base_checks(self):
        r = verify_bijection(3, 0, (3, 1, 2))
        assert not r.in_pattern
        assert dict(r.checks)["injective"]
        assert dict(r.checks)["surjective"]
        assert r.standard_count is None

    @pytest.mark.parametrize("n", [3, 4])
    def test_pattern_family_sweep(self, n):
        for ell in range(n):
            for w in itertools.permutations(range(1, n + 1)):
                if in_pattern_family(w, ell):
                    report = verify_bijection(n, ell, w)
                    assert report.ok, (n, ell, w, report.failures[:3])


# ---------------------------------------------------------------------------
# Reference: the scalar chain oracle the bitset oracle replaces


def reference_min_defining_chain2(n, columns):
    """Minimize over every permutation with the right prefix, one
    permutation and one Bruhat comparison at a time."""
    if len(columns) > 2:
        raise CapabilityError("defining chains are implemented for <= 2 columns")
    v1 = tableaux.grassmannian_permutation(columns[0], n)
    if len(columns) == 1:
        return (v1,)
    right = set(columns[1])
    s = len(right)
    valid = []
    for entries in itertools.permutations(range(1, n + 1)):
        if set(entries[:s]) == right and bruhat_leq(v1, entries):
            valid.append(entries)
    minima = [
        e for e in valid if all(bruhat_leq(e, other) for other in valid)
    ]
    if len(minima) != 1:
        raise ValueError(f"no unique minimum defining chain for {columns}")
    return v1, minima[0]


def pairwise_min_defining_chain2(n, columns):
    """The paper's candidate set, minimized by comparing every pair of
    candidates: the search the one pass of :func:`min_defining_chain2`
    replaces."""
    check_tableau(n, columns)
    left = columns[0]
    v1 = tableaux.grassmannian_permutation(left, n)
    if len(columns) == 1:
        return (v1,)
    right = columns[1]
    if len(right) == len(left):
        return v1, tableaux._block_permutation(n, right)
    if len(right) == 1:
        i_star = max(v for v in left if v <= right[0])
        return v1, tableaux._block_permutation(
            n, right, tuple(v for v in left if v != i_star))
    pool = tuple(v for v in left if v not in right)
    tails = {
        tableaux._block_permutation(n, right, tilde)
        for size in range(len(pool) + 1)
        for tilde in itertools.combinations(pool, size)
    }
    candidates = [v2 for v2 in tails if bruhat_leq(v1, v2)]
    minima = [
        v2 for v2 in candidates if all(bruhat_leq(v2, other) for other in candidates)
    ]
    if len(minima) != 1:
        raise ValueError(
            f"minimum defining chain not unique among candidates for {columns}"
        )
    return v1, minima[0]


class TestLinearScanChain:
    """The one-pass chain against the paper's candidates minimized pairwise."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_pairwise_minimum(self, n):
        for t in enumerate_ssyt2(n):
            assert min_defining_chain2(n, t) == pairwise_min_defining_chain2(n, t), t


# ---------------------------------------------------------------------------
# Reference: the per-w verification the bitset tables replace


@lru_cache(maxsize=32)
def _reference_signatures(n, ell, rearrange):
    return tuple(
        (t, rows(mf_display(n, ell, rearrange(t, ell)))) for t in enumerate_ssyt2(n)
    )


@lru_cache(maxsize=8)
def _reference_chains(n):
    """The minimum chain of each tableau, in enumeration order."""
    return tuple(min_defining_chain2(n, t) for t in enumerate_ssyt2(n))


def _reference_pairs(n):
    keys = sorted(all_index_keys(n), key=lambda k: (-len(k), k))
    return tuple(
        (a, b)
        for a, b in itertools.combinations_with_replacement(keys, 2)
        if len(a) >= len(b)
    )


def reference_verify_bijection(n, ell, w):
    """verify_bijection as it was before the bitset tables: every check
    recomputed for each w from the tableaux and the vanishing set."""
    if len(w) != n:
        raise ValueError(f"permutation length {len(w)} does not match n = {n}")
    rearrange = tableaux.ssyt_to_matching_field
    data = _reference_signatures(n, ell, rearrange)
    failures = []
    checks = []

    signatures = {}
    injective = True
    for t, sig in data:
        if sig in signatures:
            injective = False
            failures.append(
                f"images of {signatures[sig]} and {t} are row-equal"
            )
        else:
            signatures[sig] = t
    checks.append(("injective", injective))

    surjective = True
    mono_sigs = {}
    for a, b in _reference_pairs(n):
        sig = rows(mf_display(n, ell, (a, b)))
        mono_sigs[(a, b)] = sig
        if sig not in signatures:
            surjective = False
            failures.append(f"monomial {(a, b)} misses every image row class")
    checks.append(("surjective", surjective))

    vanset = vanishing_keys(w)

    def below(cols):
        return all(c not in vanset for c in cols)

    preimage_ok = True
    for t, _ in data:
        if below(rearrange(t, ell)) and not below(t):
            preimage_ok = False
            failures.append(f"preimage of below-w image {t} is not below w")
    checks.append(("preimage_below_w", preimage_ok))

    in_pattern = in_pattern_family(w, ell)
    free_312 = is_312_free(w)
    standard_count = None
    column_count = None
    row_class_count = None
    if in_pattern:
        row_class_count = standard_monomial_count_deg2(n, ell, w)
        standard_count = sum(
            1 for chain in _reference_chains(n) if bruhat_leq(chain[-1], w)
        )
        std_ok = standard_count == row_class_count
        if not std_ok:
            failures.append(
                f"standard count identity fails: standard={standard_count}, "
                f"classes={row_class_count}"
            )
        checks.append(("standard_count_identity", std_ok))

        surviving_image_sigs = set()
        column_count = 0
        image_ok = True
        for t, sig in data:
            if below(t):
                column_count += 1
                if not below(rearrange(t, ell)):
                    image_ok = False
                    failures.append(f"image of below-w tableau {t} not below w")
                surviving_image_sigs.add(sig)
        surject_w_ok = True
        surviving_sigs = set()
        for pair, sig in mono_sigs.items():
            if below(pair):
                surviving_sigs.add(sig)
                if sig not in surviving_image_sigs:
                    surject_w_ok = False
                    failures.append(
                        f"surviving monomial {pair} misses below-w images"
                    )
        # the row classes by tableau rows, against the image codes
        assert len(surviving_sigs) == row_class_count, (n, ell, w)
        column_ok = column_count == row_class_count
        if free_312:
            checks.append(("image_below_w", image_ok))
            checks.append(("surjective_below_w", surject_w_ok))
            checks.append(("column_count_identity", column_ok))
            if not column_ok:
                failures.append(
                    f"column count identity fails: below_w={column_count}, "
                    f"classes={row_class_count}"
                )

    return BijectionReport(
        n,
        ell,
        word_text(w),
        in_pattern,
        tuple(checks),
        standard_count,
        column_count,
        row_class_count,
        tuple(failures),
    )


class TestBijectionTables:
    @pytest.mark.parametrize("n", [3, 4])
    def test_reports_match_reference_for_every_w(self, n):
        for ell in range(n):
            for w in itertools.permutations(range(1, n + 1)):
                assert verify_bijection(n, ell, w) == reference_verify_bijection(
                    n, ell, w
                ), (n, ell, w)

    def test_reports_match_reference_on_pattern_family_n5(self):
        checked = 0
        for ell in range(5):
            for w in itertools.permutations(range(1, 6)):
                if in_pattern_family(w, ell):
                    checked += 1
                    assert verify_bijection(5, ell, w) == reference_verify_bijection(
                        5, ell, w
                    ), (ell, w)
        assert checked > 0

    def test_failure_paths_match_reference(self, monkeypatch):
        # a map that only reorders the display breaks injectivity and both
        # surjectivity checks; the failure messages must still agree, in order
        def unmoved(columns, ell):
            return columns

        # the table rearranges unchecked and the reference through the
        # public map; both get the same one
        monkeypatch.setattr(tableaux, "_rearrange", unmoved)
        monkeypatch.setattr(tableaux, "ssyt_to_matching_field", unmoved)
        _bijection_table.cache_clear()
        try:
            failed = set()
            for n in (3, 4):
                for ell in range(n):
                    for w in itertools.permutations(range(1, n + 1)):
                        report = verify_bijection(n, ell, w)
                        assert report == reference_verify_bijection(n, ell, w)
                        failed.update(name for name, ok in report.checks if not ok)
            assert {"injective", "surjective", "surjective_below_w"} <= failed
        finally:
            _bijection_table.cache_clear()

    def test_real_map_reports_below_w_failures(self):
        # the recorded-only column-form failures and the preimage failures
        r = verify_bijection(3, 1, (3, 1, 2))
        assert r.failures == ("image of below-w tableau ((1, 3), (2,)) not below w",)
        r = verify_bijection(3, 1, (2, 3, 1))
        assert not dict(r.checks)["preimage_below_w"]
        assert r.failures == (
            "preimage of below-w image ((1, 2), (3,)) is not below w",
        )

    def test_size_mismatch(self):
        # the per-w entry points check the tuple's length and entries
        with pytest.raises(ValueError, match="does not match n = 4"):
            verify_bijection(4, 1, (1, 2, 3))
        with pytest.raises(ValueError, match=r"not a permutation of \[3\]"):
            verify_bijection(3, 1, (1, 2, 2))
        with pytest.raises(ValueError, match="permutation length 3 does not match n = 4"):
            is_standard(4, ((1, 2), (3,)), (1, 2, 3))
        with pytest.raises(ValueError, match="not a permutation"):
            enumerate_ssyt2(3, (0, 1, 2))
        with pytest.raises(ValueError, match="does not match n = 3"):
            standard_monomial_count_deg2(3, 0, (2, 1))


def reference_level(n):
    """_level as one loop over the tableaux: each tableau's checked chain,
    its end's up-set built and added to the counter on its own, and the
    domination check of that tableau.  The up-set is read through
    ``tableaux.bruhat_up_set`` so that a patch there reaches both."""
    alive = _alive_masks(n)
    free_312 = family_masks(n, 0).free_312
    tableaux_n, below, standard, chain_failing, domination_failing = [], [], [], [], []
    for t in enumerate_ssyt2(n):
        tableaux_n.append(t)
        chain = min_defining_chain2(n, t)
        if chain != min_defining_chain2_exhaustive(n, t):
            chain_failing.append(t)
        t_below, t_standard = alive[t[0]] & alive[t[1]], tableaux.bruhat_up_set(chain[-1])
        _add(below, t_below)
        _add(standard, t_standard)
        differs = (t_standard ^ t_below) & free_312
        if differs:
            domination_failing.append((t, differs))
    return tableaux._Level(tuple(tableaux_n), tuple(below), tuple(standard),
                           tuple(chain_failing), tuple(domination_failing))


class TestLevelAgainstReference:
    """One up-set per distinct chain end, counted with its multiplicity,
    against one per tableau."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow)])
    def test_equals_per_tableau_loop(self, n):
        assert _level(n) == reference_level(n)

    def test_equals_per_tableau_loop_with_perturbed_up_sets(self, monkeypatch):
        # domination failures of many tableaux per end, in enumeration order
        monkeypatch.setattr(tableaux, "bruhat_up_set",
                            TestDominationAgainstReference._perturbed_up_set)
        _level.cache_clear()
        try:
            for n in (3, 4, 5, 6):
                level = _level(n)
                assert level == reference_level(n), n
            # some ends fail for several tableaux, which their up-set's one
            # visit must report in enumeration order
            ends = [min_defining_chain2(6, t)[-1] for t, _ in level.domination_failing]
            assert len(set(ends)) < len(ends)
        finally:
            _level.cache_clear()


class TestStandardMasks:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_is_standard_matches_chain_end_below_w(self, n):
        for t in enumerate_ssyt2(n):
            end = min_defining_chain2(n, t)[-1]
            for w in itertools.permutations(range(1, n + 1)):
                assert is_standard(n, t, w) == bruhat_leq(end, w), (w, t)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_masks_follow_enumeration_order(self, n):
        # the per-n pass keeps the enumeration order, and its counters sum
        # standardness and column domination tableau by tableau
        level = _level(n)
        tableaux_n = list(enumerate_ssyt2(n))
        assert level.tableaux == tuple(tableaux_n)
        for i, w in enumerate(itertools.permutations(range(1, n + 1))):
            vanset = vanishing_keys(w)
            standard = sum(is_standard(n, t, w) for t in tableaux_n)
            below = sum(all(c not in vanset for c in t) for t in tableaux_n)
            assert _bit_count(level.standard, i) == standard, w
            assert _bit_count(level.below, i) == below, w


def bit_sliced(masks):
    """The bit-sliced counter of ``masks``, added one at a time by ``_add``."""
    planes = []
    for mask in masks:
        _add(planes, mask)
    return tuple(planes)


class TestBitSlicedCounter:
    @staticmethod
    def _assert_counts(masks, width):
        planes = bit_sliced(masks)
        for i in range(width + 2):
            assert _bit_count(planes, i) == sum(mask >> i & 1 for mask in masks), i

    def test_empty_and_all_zero(self):
        assert bit_sliced(()) == ()
        assert bit_sliced((0, 0, 0)) == ()
        assert _bit_count((), 5) == 0
        self._assert_counts((0,) * 9, 8)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_counts_across_powers_of_two(self, k):
        # bit j is set in the first j masks, so the counts run 0..2^k + 1
        width = 2**k + 2
        masks = tuple(
            sum(1 << j for j in range(width) if j > m) for m in range(width)
        )
        self._assert_counts(masks, width)
        assert len(bit_sliced(masks)) == (width - 1).bit_length()

    def test_wide_masks(self):
        masks = tuple((0x9E3779B97F4A7C15 * (m + 1)) % (1 << 200) for m in range(300))
        self._assert_counts(masks, 200)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.just(0), st.integers(0, 2**130)),
                              st.integers(0, 260)), max_size=6))
    def test_multiplicity_equals_repeated_adds(self, adds):
        # each add of a mask with multiplicity leaves the counter that as
        # many single adds leave, with no zero plane at the top
        planes, expected = [], []
        for mask, times in adds:
            _add(planes, mask, times)
            for _ in range(times):
                _add(expected, mask)
            assert planes == expected, (mask, times)
            assert not planes or planes[-1], planes

    @pytest.mark.parametrize("times", [0, 1, 2, 3, 64, 200, 255, 256, 257])
    def test_multiplicity_from_empty_and_onto_counts(self, times):
        # the first add may start above the top plane (a power of two), and a
        # zero mask adds nothing whatever its multiplicity
        for start in ((), (0b11,), (0b1, 0b110)):
            for mask in (0, 0b1, 0b101, 0b111):
                planes = list(start)
                _add(planes, mask, times)
                assert planes == list(bit_sliced((*self._unsliced(start),
                                                  *(mask,) * times)))
                assert not planes or planes[-1], planes

    @staticmethod
    def _unsliced(planes):
        """Masks whose single adds give ``planes``: plane k as 2^k copies."""
        return tuple(plane for k, plane in enumerate(planes) for _ in range(2**k))


# ---------------------------------------------------------------------------
# Reference: the table built with one full mask per row class


def reference_bijection_table(n, ell, rearrange):
    """_bijection_table as it was before the grouped build, with the
    rearrangement map as an argument: two dicts, ``covered`` and
    ``classes``, each hold one bitset over S_n per row class until the end,
    and every tableau and pair gets an entry before the zero ones are
    dropped."""
    alive = _alive_masks(n)
    failures = []
    code = {key: image_code(n, ell, key) for key in all_index_keys(n)}
    first = {}  # image code -> the first tableau whose image has it
    covered = {}  # image code -> the w where some below-w tableau has it
    preimage, image = [], []
    for t in enumerate_ssyt2(n):
        (a, b), (c, d) = t, rearrange(t, ell)
        row_class = code[c] + code[d]
        if row_class in first:
            failures.append(f"images of {first[row_class]} and {t} are row-equal")
        else:
            first[row_class] = t
        t_below, image_below = alive[a] & alive[b], alive[c] & alive[d]
        covered[row_class] = covered.get(row_class, 0) | t_below
        preimage.append((t, image_below & ~t_below))
        image.append((t, t_below & ~image_below))
    checks = [("injective", not failures)]

    surjective = True
    surviving = []
    classes = {}
    for a, b in _reference_pairs(n):
        row_class = code[a] + code[b]
        if row_class not in first:
            surjective = False
            failures.append(f"monomial {(a, b)} misses every image row class")
        bits = alive[a] & alive[b]
        surviving.append(((a, b), bits & ~covered.get(row_class, 0)))
        classes[row_class] = classes.get(row_class, 0) | bits
    checks.append(("surjective", surjective))

    def nonzero(items):
        return tuple((label, mask) for label, mask in items if mask)

    return tableaux._BijectionTable(
        checks=tuple(checks),
        failures=tuple(failures),
        preimage_failing=nonzero(preimage),
        image_failing=nonzero(image),
        surjective_failing=nonzero(surviving),
        classes=bit_sliced(classes.values()),
    )


class TestGroupedTable:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow)])
    def test_equals_two_dict_build(self, n):
        for ell in range(n):
            table = _bijection_table(n, ell)
            expected = reference_bijection_table(n, ell, ssyt_to_matching_field)
            for field in table._fields:
                assert getattr(table, field) == getattr(expected, field), (ell, field)

    def test_equals_two_dict_build_for_non_injective_map(self, monkeypatch):
        # the map of test_failure_paths_match_reference: row classes with
        # several tableaux, and classes with no tableau at all
        def unmoved(columns, ell):
            return columns

        monkeypatch.setattr(tableaux, "_rearrange", unmoved)
        _bijection_table.cache_clear()
        failed = set()
        try:
            for n in (3, 4):
                for ell in range(n):
                    table = _bijection_table(n, ell)
                    assert table == reference_bijection_table(n, ell, unmoved), (n, ell)
                    failed.update(name for name, ok in table.checks if not ok)
        finally:
            _bijection_table.cache_clear()
        assert failed == {"injective", "surjective"}

    def test_build_holds_less_than_one_mask_per_row_class(self):
        # with one full mask per row class live at once (a dict of them),
        # the build would peak at len(tableaux) masks or more
        n, ell = 7, 3
        bound = len(_level(n).tableaux) * (math.factorial(n) // 8)
        _bijection_table.cache_clear()
        tracemalloc.start()
        try:
            _bijection_table(n, ell)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            _bijection_table.cache_clear()
        assert peak < bound, (peak, bound)


def reference_domination(n, standard):
    """run_tableaux's standardness-against-domination loop as it was before
    the bitsets: one vanishing set per 312-free w, one check per tableau."""
    report = suites.SuiteReport("tableaux")
    tableaux_n = list(enumerate_ssyt2(n))
    for i, w in enumerate(itertools.permutations(range(1, n + 1))):
        if not is_312_free(w):
            continue
        vanset = vanishing_keys(w)
        for t, mask in zip(tableaux_n, standard):
            report.checked += 1
            dominated = all(c not in vanset for c in t)
            if bool(mask >> i & 1) != dominated:
                report.record(n=n, w=word_text(w), columns=t,
                              detail="standardness differs from domination")
    return report


class TestDominationAgainstReference:
    DETAIL = "standardness differs from domination"

    @staticmethod
    def _perturbed_up_set(entries):
        """The Bruhat up-set with one bit flipped for every chain end with
        two or more descents (about a fifth of the tableaux), at 312-free and
        other w.  The exhaustive chain oracle reads only up-sets of Grassmannian
        permutations (at most one descent), so it sees the real ones."""
        up_set = bruhat_up_set(entries)
        if sum(a > b for a, b in zip(entries, entries[1:])) >= 2:
            k = permutation_index(entries)
            up_set ^= 1 << (7 * k % math.factorial(len(entries)))
        return up_set

    def test_perturbed_masks_report_like_reference(self, monkeypatch):
        perturbed = {
            n: tuple(
                self._perturbed_up_set(min_defining_chain2(n, t)[-1])
                for t in enumerate_ssyt2(n)
            )
            for n in (3, 4, 5)
        }
        # the one pass per n builds the standardness counter and the
        # domination check together; no level built from perturbed up-sets
        # may stay cached
        _level.cache_clear()
        monkeypatch.setattr(tableaux, "bruhat_up_set", self._perturbed_up_set)
        try:
            report = suites.run_tableaux(5)
        finally:
            _level.cache_clear()
        expected = []
        for n in (3, 4, 5):
            expected.extend(reference_domination(n, perturbed[n]).mismatches)
        found = [m for m in report.mismatches if m.get("detail") == self.DETAIL]
        assert found == expected
        assert len({m["w"] for m in expected}) > 10
        # the chain oracle saw the real up-sets
        assert not any(m.get("detail") == "constructive chain differs from exhaustive"
                       for m in report.mismatches)
        # pinned from the per-w loop before the bitsets
        assert report.checked == 18950


# ---------------------------------------------------------------------------
# Reference: the tableaux suite with one verify_bijection per pattern member


def reference_run_tableaux(n_max):
    """run_tableaux as it was before the failing mask: every pattern-family
    w gets its own bijection report."""
    report = suites.SuiteReport("tableaux")
    for n in range(3, n_max + 1):
        for ell in range(n):
            for i in set_bits(family_masks(n, ell).pattern):
                result = verify_bijection(n, ell, permutation_at(n, i))
                report.checked += 1
                if not result.ok:
                    report.record(n=n, ell=ell, w=result.w,
                                  failures=result.failures[:3])
        tableaux_n = list(enumerate_ssyt2(n))
        chains = _reference_chains(n)
        for t, chain in zip(tableaux_n, chains):
            report.checked += 1
            if chain != min_defining_chain2_exhaustive(n, t):
                report.record(n=n, columns=t,
                              detail="constructive chain differs from exhaustive")
        alive = _alive_masks(n)
        free_312 = family_masks(n, 0).free_312
        report.checked += free_312.bit_count() * len(tableaux_n)
        differs = [
            ((a, b), (bruhat_up_set(chain[-1]) ^ (alive[a] & alive[b])) & free_312)
            for (a, b), chain in zip(tableaux_n, chains)
        ]
        differs = [(t, mask) for t, mask in differs if mask]
        for i in set_bits(reduce(or_, (m for _, m in differs), 0)):
            w = word_text(permutation_at(n, i))
            for t, mask in differs:
                if mask >> i & 1:
                    report.record(n=n, w=w, columns=t,
                                  detail="standardness differs from domination")
    return report


def _first_bit(mask):
    return mask & -mask


def _targets(n, ell):
    """One-bit masks at a 312-free member of the pattern family, at a member
    with a 312 pattern, and at a w outside the family of every cut (a fault
    in the per-n counters reaches every cut)."""
    masks = family_masks(n, ell)
    full = (1 << math.factorial(n)) - 1
    members = reduce(or_, (family_masks(n, cut).pattern for cut in range(n)))
    targets = {
        "free_312": _first_bit(masks.pattern & masks.free_312),
        "with_312": _first_bit(masks.pattern & ~masks.free_312),
        "outside": _first_bit(full & ~members),
    }
    assert all(targets.values())
    return targets


def _flip_first(items, bits):
    """Flip ``bits`` in the first failing list entry, or add an entry."""
    if not items:
        return ((((1,), (2,)), bits),)
    (label, mask), *rest = items
    return ((label, mask ^ bits), *rest)


def _flip_plane(planes, bits):
    """Flip ``bits`` in plane 1 of a bit-sliced counter."""
    return (planes[0], planes[1] ^ bits) + planes[2:]


def _fail_check(table, index):
    checks = list(table.checks)
    checks[index] = (checks[index][0], False)
    return table._replace(checks=tuple(checks),
                          failures=("injected failure",) + table.failures)


FAULT_CUT = (5, 2)
# fault -> (the record it changes: the table of FAULT_CUT or the level of
# its n; how it changes it given the bits to flip; which target members of
# FAULT_CUT then fail)
FAULTS = {
    "injective": (
        "_bijection_table", lambda t, bits: _fail_check(t, 0), ("free_312", "with_312"),
    ),
    "surjective": (
        "_bijection_table", lambda t, bits: _fail_check(t, 1), ("free_312", "with_312"),
    ),
    "preimage_failing": (
        "_bijection_table",
        lambda t, bits: t._replace(preimage_failing=_flip_first(t.preimage_failing, bits)),
        ("free_312", "with_312"),
    ),
    "standard": (
        "_level",
        lambda t, bits: t._replace(standard=_flip_plane(t.standard, bits)),
        ("free_312", "with_312"),
    ),
    "below": (
        "_level",
        lambda t, bits: t._replace(below=_flip_plane(t.below, bits)),
        ("free_312",),
    ),
    "image_failing": (
        "_bijection_table",
        lambda t, bits: t._replace(image_failing=_flip_first(t.image_failing, bits)),
        ("free_312",),
    ),
    "surjective_failing": (
        "_bijection_table",
        lambda t, bits: t._replace(
            surjective_failing=_flip_first(t.surjective_failing, bits)
        ),
        ("free_312",),
    ),
}


class TestBijectionFailingMask:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_empty_on_real_tables(self, n):
        for ell in range(n):
            assert bijection_failing_mask(n, ell) == 0, ell

    @pytest.mark.parametrize("target", ["free_312", "with_312"])
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_faults_report_like_reference(self, monkeypatch, fault, target):
        # each fault is set at one pattern member and at one w outside the
        # family; the mask path and the per-w loop must agree record for
        # record, in order, with the same count
        name, change, fails_at = FAULTS[fault]
        bits = _targets(*FAULT_CUT)
        real = getattr(tableaux, name)
        # the table takes (n, ell) and the level n alone
        key = FAULT_CUT if name == "_bijection_table" else FAULT_CUT[:1]

        def faulty(*args):
            record = real(*args)
            if args == key:
                record = change(record, bits[target] | bits["outside"])
            return record

        monkeypatch.setattr(tableaux, name, faulty)
        report = suites.run_tableaux(5)
        expected = reference_run_tableaux(5)
        assert report == expected
        assert report.checked == 18950
        failing = {(m["n"], m["ell"], m["w"]) for m in report.mismatches}
        target_w = word_text(permutation_at(5, bits[target].bit_length() - 1))
        assert ((5, 2, target_w) in failing) == (target in fails_at)
        if fault in ("injective", "surjective"):
            assert len(failing) == family_masks(*FAULT_CUT).pattern.bit_count()
        else:
            # a fault in the level of n = 5 reaches every cut of n = 5
            cuts = range(5) if name == "_level" else (2,)
            assert failing <= {(5, ell, target_w) for ell in cuts}

    @pytest.mark.parametrize("n_max", [5, 6, pytest.param(7, marks=pytest.mark.slow)])
    def test_real_tables_report_like_reference(self, n_max):
        assert suites.run_tableaux(n_max) == reference_run_tableaux(n_max)


class TestCountIdentityOverSn:
    """The degree-two count identity holds exactly on the pattern family:
    the standard count and the row-class count differ on every other w."""

    @staticmethod
    def _check(n):
        full = (1 << math.factorial(n)) - 1
        for ell in range(n):
            table = _bijection_table(n, ell)
            differs = _counters_differ(_level(n).standard, table.classes)
            assert differs == full & ~family_masks(n, ell).pattern, (n, ell)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_equal_exactly_on_pattern_family(self, n):
        self._check(n)

    @pytest.mark.slow
    def test_equal_exactly_on_pattern_family_n7_slow(self):
        self._check(7)


class TestTableauxSuiteBound:
    def test_n_max_above_eight_raises_before_work(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError(f"_level({n}) called")

        monkeypatch.setattr(tableaux, "_level", refuse)
        with pytest.raises(CapabilityError, match="n_max 9 exceeds"):
            suites.run_tableaux(9)
        code = cli.main(["verify", "--suite", "tableaux", "--n-max", "9"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: n_max 9 exceeds the tableaux suite's bound 8\n"

    @pytest.mark.slow
    def test_n8_slow(self):
        # pinned after the mask path and the per-w path agreed at n <= 7
        # and the mask path ran ok at n = 8; the n = 8 tables are dropped
        # afterwards so that they do not stay cached for the whole session
        try:
            report = suites.run_tableaux(8)
            assert report.ok, report.mismatches[:5]
            assert report.checked == 36957374
        finally:
            for cached in (_bijection_table, _level):
                cached.cache_clear()
