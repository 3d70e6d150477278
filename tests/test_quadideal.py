import itertools
import random
from collections import Counter

import pytest

from expansion_oracle import det_terms, flag_ideal_rows, left_kernel, product_row
from initial_ideal_oracle import (
    degree2_flag_ideal,
    initial_degree2,
    reference_flag_ideal,
    span_equal,
    surviving_binomial_space,
)
from mask_oracle import block_layouts, reference_theorem_a_masks, verdict_items
from mfl import exactla, flagideal, golden
from mfl.flagideal import _block_matches, _flag_ideal, theorem_a_masks
from mfl.permcomb import (
    _alive_masks,
    all_index_keys,
    permutation_at,
    permutation_index,
    vanishing_keys,
    word_text,
)
from mfl.oracle import (
    QuadraticRelation,
    _fibers,
    _key_fibers,
    classify_oracle,
    mono_key,
    mono_text,
    quadratic_relations,
)
from mfl.quadideal import (
    BINOMIAL,
    NONBINOMIAL,
    ZERO,
    CapabilityError,
    _fiber_folds,
    _fiber_table,
    rank_one_mask,
    verdict_masks,
)
from mfl.suites import run_suite, run_theorem_a
from mfl.tableaux import enumerate_ssyt2
from per_w_reference import variable_image_key


def canon(mono_pair, sign):
    m1, m2 = mono_pair
    return QuadraticRelation(*((m1, m2, sign) if (len(m1[0]), m1) <= (len(m2[0]), m2) else (m2, m1, sign)))


def golden_relations(rows):
    out = set()
    for m1, m2, sign in rows:
        first = (len(m1[0]), m1) <= (len(m2[0]), m2)
        out.add(QuadraticRelation(m1 if first else m2, m2 if first else m1, sign))
    return out


class TestRelations:
    def test_single_relation_n3_diagonal(self):
        rels = quadratic_relations(3, 0)
        assert len(rels) == 1
        assert rels[0].text() == "P_1*P_23 - P_2*P_13"

    def test_reference_generating_sets_n4(self):
        assert set(quadratic_relations(4, 2)) == golden_relations(golden.GENERATORS_N4_ELL2)
        assert set(quadratic_relations(4, 0)) == golden_relations(golden.GENERATORS_N4_DIAGONAL)

    def test_every_relation_maps_to_zero(self):
        def image(n, ell, mono):
            (ca, sa), (cb, sb) = (variable_image_key(n, ell, k) for k in mono)
            return sorted(ca + cb), sa * sb

        for n in range(3, 6):
            for ell in range(n):
                for rel in quadratic_relations(n, ell):
                    lhs_cells, lhs_sign = image(n, ell, rel.lhs)
                    rhs_cells, rhs_sign = image(n, ell, rel.rhs)
                    assert lhs_cells == rhs_cells, rel
                    assert rel.sign == lhs_sign * rhs_sign, rel

    def test_all_pairs_contains_spanning(self):
        for ell in range(4):
            spanning = set(quadratic_relations(4, ell))
            everything = set(quadratic_relations(4, ell, all_pairs=True))
            assert spanning <= everything

    def test_squares_never_pair(self):
        # fibers containing a squared variable are singletons, hence dropped
        for n in range(3, 7):
            for ell in range(n):
                for fiber in _key_fibers(n, ell):
                    for mono, _ in fiber:
                        assert mono[0] != mono[1], (n, ell, mono)

    def test_text_and_json(self):
        rel = quadratic_relations(4, 2)[0]
        obj = rel.to_json_obj()
        assert set(obj) == {"lhs", "rhs", "sign"}
        assert mono_text(rel.lhs).startswith("P_")
        assert word_text((1, 2, 10)) == "1,2,10"


class TestRestrict:
    def test_restricted_cell_example(self):
        out = classify_oracle(4, 2, (3, 2, 1, 4))
        assert out.verdict == BINOMIAL
        assert len(out.surviving_binomials) == 1
        rel = out.surviving_binomials[0]
        assert {rel.lhs, rel.rhs} == set(golden.RESTRICTED_CELL_4_2_3214)
        assert out.degree2_rank == 1

    def test_monomial_case(self):
        out = classify_oracle(3, 0, (3, 1, 2))
        assert out.verdict == NONBINOMIAL
        assert out.surviving_monomials == (((2,), (1, 3)),)

    def test_zero_case(self):
        for ell in range(4):
            out = classify_oracle(4, ell, (1, 2, 3, 4))
            assert out.verdict == ZERO
            assert out.surviving_binomials == ()
            assert out.surviving_monomials == ()
            assert out.degree2_rank == 0

    def test_mode_invariance(self):
        # verdict, monomial list and rank do not depend on the spanning choice
        for n in (3, 4):
            for ell in range(n):
                for w in itertools.permutations(range(1, n + 1)):
                    a = classify_oracle(n, ell, w, all_pairs=False)
                    b = classify_oracle(n, ell, w, all_pairs=True)
                    assert a.verdict == b.verdict
                    assert a.surviving_monomials == b.surviving_monomials
                    assert a.degree2_rank == b.degree2_rank


class TestClassifyOracle:
    def test_examples(self):
        out = classify_oracle(3, 2, (3, 2, 1))
        assert out.verdict == BINOMIAL
        assert {out.surviving_binomials[0].lhs, out.surviving_binomials[0].rhs} == {
            ((1,), (2, 3)), ((3,), (1, 2)),
        }
        assert classify_oracle(4, 2, (4, 2, 3, 1)).verdict == BINOMIAL
        assert classify_oracle(4, 2, (2, 4, 3, 1)).verdict == NONBINOMIAL

    def test_bounds(self):
        with pytest.raises(CapabilityError):
            classify_oracle(8, 0, (1, 2, 3, 4, 5, 6, 7, 8))
        with pytest.raises(ValueError):
            classify_oracle(2, 0, (1, 2))
        with pytest.raises(ValueError):
            classify_oracle(4, 4, (1, 2, 3, 4))
        with pytest.raises(ValueError):
            classify_oracle(4, 0, (1, 2, 3, 4, 5))
        with pytest.raises(ValueError, match=r"not a permutation of \[4\]"):
            classify_oracle(4, 0, (1, 1, 2, 3))
        with pytest.raises(ValueError, match=r"length must be in 1\.\.16, got 0"):
            classify_oracle(0, 0, ())

    def test_json_export(self):
        obj = classify_oracle(4, 2, (3, 2, 1, 4)).to_json_obj()
        assert obj["schema"] == "mfl/1"
        assert obj["n"] == 4 and obj["ell"] == 2 and obj["w"] == "3214"
        assert obj["verdict"] == "binomial"
        (gen,) = obj["generators"]
        assert {tuple(gen["lhs"]), tuple(gen["rhs"])} == {("3", "12"), ("1", "23")}

    def test_bulk_verdicts_agree(self):
        # the bit-parallel kernel against the per-w oracle, every ell, n <= 6
        for n in range(3, 7):
            for ell in range(n):
                for entries, verdict in verdict_items(n, ell):
                    oracle = classify_oracle(n, ell, entries).verdict
                    assert oracle == verdict, (n, ell, entries)


    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_rank_one_mask_agrees(self, n):
        # the fiber fold against the per-w oracle, every w and every ell
        for ell in range(n):
            mask = rank_one_mask(n, ell)
            for i, entries in enumerate(itertools.permutations(range(1, n + 1))):
                outcome = classify_oracle(n, ell, entries)
                expected = outcome.verdict == BINOMIAL and outcome.degree2_rank == 1
                assert bool(mask >> i & 1) == expected, (n, ell, entries)


class TestVerdictKernel:
    def test_n7_spot_check(self):
        # every 50th w in permutation order; the full n = 7 oracle sweep is
        # too slow for the default test run
        for ell in range(7):
            for entries, verdict in verdict_items(7, ell)[::50]:
                oracle = classify_oracle(7, ell, entries).verdict
                assert oracle == verdict, (ell, entries)

    def test_keys_in_permutation_order(self):
        keys = [permutation_at(4, i) for i in range(24)]
        assert keys == list(itertools.permutations(range(1, 5)))
        assert [w for w, _ in verdict_items(4, 1)] == keys

    def test_n7_counts(self):
        for ell, expected in enumerate(golden.COUNT_TABLE[7]):
            verdicts = [v for _, v in verdict_items(7, ell)]
            assert verdicts.count(BINOMIAL) == expected
            assert verdicts.count(ZERO) == 21

    def test_caches_are_bounded(self):
        for cached in (_alive_masks, _flag_ideal):
            maxsize = cached.cache_info().maxsize
            assert maxsize is not None and maxsize <= 8
        # every re-read of one cut's fibers and relations is of the cut just
        # built, while the distinct fibers and their folds serve all cuts
        # of n: the census reads n = 3..7, a verify run n = 3..6
        assert _fibers.cache_info().maxsize == 1
        assert quadratic_relations.cache_info().maxsize == 1
        for cached in (_fiber_table, _fiber_folds):
            assert 5 <= cached.cache_info().maxsize <= 8
        assert det_terms.cache_info().maxsize is not None
        for n in range(3, 8):
            verdict_masks(n, 0)
        assert _alive_masks.cache_info().currsize <= _alive_masks.cache_info().maxsize

    def test_alive_masks_match_vanishing_sets(self):
        for n in range(1, 7):
            alive = _alive_masks(n)
            assert set(alive) == set(all_index_keys(n))
            for i, w in enumerate(itertools.permutations(range(1, n + 1))):
                vanset = vanishing_keys(w)
                for key, mask in alive.items():
                    assert bool(mask >> i & 1) == (key not in vanset), (w, key)

    def test_input_checks(self):
        with pytest.raises(ValueError, match="needs n >= 3, got 2"):
            verdict_masks(2, 0)
        with pytest.raises(ValueError, match=r"ell must be in 0\.\.3, got 9"):
            verdict_masks(4, 9)
        with pytest.raises(ValueError, match=r"ell must be in 0\.\.3, got -1"):
            verdict_masks(4, -1)
        with pytest.raises(CapabilityError, match="oracle bound"):
            verdict_masks(8, 0)
        with pytest.raises(CapabilityError, match="oracle bound is n <= 4"):
            verdict_masks(5, 0, bound=4)


class TestDegreeTwoSpace:
    def test_n2_is_zero(self):
        assert degree2_flag_ideal(2).rank == 0

    def test_n3_is_the_three_term_relation(self):
        space = degree2_flag_ideal(3)
        assert space.rank == 1
        (row,) = space.rows
        monos = [space.monomials[c] for c, _ in row]
        coeffs = [v for _, v in row]
        assert monos == [((1,), (2, 3)), ((2,), (1, 3)), ((3,), (1, 2))]
        assert coeffs == [1, -1, 1]

    def test_n4_contains_grassmann_relation(self):
        space = degree2_flag_ideal(4)
        assert space.rank == 10
        idx = {m: i for i, m in enumerate(space.monomials)}
        basis = exactla.rref([dict(r) for r in space.rows])
        vec = {
            idx[((1, 4), (2, 3))]: 1,
            idx[((1, 3), (2, 4))]: -1,
            idx[((1, 2), (3, 4))]: 1,
        }
        assert basis.contains(vec)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_shared_elimination_matches_per_block_rref(self, n):
        # blocks with the same local relations share one rref; each block
        # equals its own reduction, with every row's entries in order
        def entries(blocks):
            return [(b.members, [list(row.items()) for row in b.rows]) for b in blocks]

        assert entries(_flag_ideal(n)) == entries(reference_flag_ideal(n))

    def test_each_relation_list_is_reduced_once(self, monkeypatch):
        # 13 distinct local relation lists for the 307 blocks at n = 6
        calls = []
        real = exactla.rref

        def counted(rows, col_pos=None):
            calls.append(rows)
            return real(rows, col_pos)

        monkeypatch.setattr(exactla, "rref", counted)
        blocks = _flag_ideal.__wrapped__(6)
        assert len(blocks) == 307 and len(calls) == 13

    def test_pinned_ranks(self):
        # pinned after the relation-built and the left-kernel ideals agreed
        # (n <= 7) and the rank identity below held (n <= 8)
        ranks = tuple(degree2_flag_ideal(n, cap=8).rank for n in range(3, 9))
        assert ranks == (1, 10, 66, 364, 1821, 8586)

    def test_rank_matches_standard_monomial_count(self):
        # independently: the quotient's dimension counts the fibers
        from per_w_reference import standard_monomial_count_deg2

        for n, monomials, standard in (
            (5, 465, 399), (6, 1953, 1589), (7, 8001, 6180), (8, 32385, 23799),
        ):
            space = degree2_flag_ideal(n, cap=8)
            assert len(space.monomials) == monomials
            assert monomials - space.rank == standard
            w0 = tuple(range(n, 0, -1))
            for ell in range(n):
                assert standard_monomial_count_deg2(n, ell, w0) == standard

    @staticmethod
    def _assert_block_coranks(n):
        # per multidegree (column multiset and size pair), the quotient's
        # dimension counts the semi-standard pairs of that multidegree
        def degree(a, b):
            return tuple(sorted(a + b)), tuple(sorted((len(a), len(b))))

        monomials = degree2_flag_ideal(n, cap=n).monomials
        blocks = _flag_ideal(n)
        per_degree = Counter(degree(*m) for m in monomials)
        semistandard = Counter(degree(*t) for t in enumerate_ssyt2(n))
        assert set(semistandard) <= set(per_degree)
        for block in blocks:
            d = degree(*monomials[block.members[0]])
            assert per_degree[d] == len(block.members), (n, d)
            assert len(block.members) - len(block.rows) == semistandard[d], (n, d)
        # a multidegree with one monomial has no relation: one pair each
        singles = [d for d, count in per_degree.items() if count == 1]
        assert len(blocks) + len(singles) == len(per_degree)
        for d in singles:
            assert semistandard[d] == 1, (n, d)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_block_corank_counts_semistandard_pairs(self, n):
        self._assert_block_coranks(n)

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [7, 8])
    def test_block_corank_counts_semistandard_pairs_slow(self, n):
        self._assert_block_coranks(n)

    def test_blockwise_rref_matches_global_rref(self):
        # the per-block bases against one global elimination of every
        # block's left-kernel rows
        for n in (3, 4, 5):
            space = degree2_flag_ideal(n)
            rows = []
            for block in _flag_ideal(n):
                products = [product_row(n, *space.monomials[i]) for i in block.members]
                rows.extend(
                    {i: c for i, c in zip(block.members, vec) if c}
                    for vec in left_kernel(products)
                )
            assert exactla.rref(rows).canonical() == space.rows

    @pytest.mark.parametrize("n", range(3, 7))
    def test_relations_match_left_kernel(self, n):
        assert degree2_flag_ideal(n, cap=n).rows == flag_ideal_rows(n)

    @pytest.mark.slow
    def test_relations_match_left_kernel_n7_slow(self):
        assert degree2_flag_ideal(7, cap=7).rows == flag_ideal_rows(7)

    def test_cap(self):
        with pytest.raises(CapabilityError):
            degree2_flag_ideal(6, cap=5)

    def test_env_cap(self, monkeypatch):
        # the environment sets no cap: only the caller does (mfl --la-cap)
        monkeypatch.setenv("MFL_LA_CAP", "3")
        report = run_suite("theoremA", n_max=4)
        assert report.ok and report.checked > 0


class TestInitialDegree2:
    def test_restricted_example(self):
        space = initial_degree2(4, 2, (3, 2, 1, 4))
        assert space.rank == 1
        (row,) = space.rows
        support = {space.monomials[c] for c, _ in row}
        assert support == {((1,), (2, 3)), ((3,), (1, 2))}

    def test_zero_for_zero_family(self):
        for ell in range(3):
            assert initial_degree2(3, ell, (1, 2, 3)).rank == 0

    def test_full_flag_matches_relations(self):
        # with nothing vanishing, initial forms span the fiber relations
        for n in (3, 4):
            for ell in range(n):
                w0 = tuple(range(n, 0, -1))
                init = initial_degree2(n, ell, w0)
                gs = surviving_binomial_space(n, ell, w0, init)
                assert gs.rows == init.rows
                assert init.rank == len(quadratic_relations(n, ell))

    def test_theorem_equality_examples(self):
        for ell, w in [(2, (3, 2, 1, 4)), (0, (1, 3, 4, 2))] + [
            (ell, (1, 2, 3, 4)) for ell in range(4)
        ]:
            masks = theorem_a_masks(4, ell)
            i = permutation_index(w)
            assert masks.checked >> i & 1 and not masks.failing >> i & 1, (ell, w)
        assert initial_degree2(4, 0, (1, 3, 4, 2)).rank == 1
        for ell in range(4):
            assert initial_degree2(4, ell, (1, 2, 3, 4)).rank == 0

    def test_input_checks(self):
        with pytest.raises(ValueError, match="does not match n = 4"):
            initial_degree2(4, 0, (1, 2, 3))
        with pytest.raises(ValueError, match="not a permutation"):
            surviving_binomial_space(3, 0, (1, 1, 2), initial_degree2(3, 0, (1, 2, 3)))

    def test_la_cap_is_the_only_size_gate(self):
        # past the oracle bound (n <= 7) the la-cap alone decides
        assert theorem_a_masks(8, 0, cap=8).failing == 0
        with pytest.raises(CapabilityError, match="linear-algebra cap is n <= 7"):
            theorem_a_masks(8, 0, cap=7)

    def test_blockwise_matches_reference(self):
        # the bitset sweep against the global reference path, for every
        # monomial-free case with n <= 5
        checked = 0
        for n in range(3, 6):
            for ell in range(n):
                masks = theorem_a_masks(n, ell, cap=5)
                monomial, _ = verdict_masks(n, ell)
                assert masks.partial == 0
                for i, w in enumerate(itertools.permutations(range(1, n + 1))):
                    free = not monomial >> i & 1
                    assert bool(masks.checked >> i & 1) == free, (n, ell, w)
                    if not free:
                        continue
                    init = initial_degree2(n, ell, w)
                    reference = surviving_binomial_space(n, ell, w, init).rows == init.rows
                    assert bool(masks.failing >> i & 1) != reference, (n, ell, w)
                    checked += 1
        assert checked == 248

    def test_standard_monomial_dimension_identity(self):
        from per_w_reference import standard_monomial_count_deg2

        for n in (3, 4):
            for ell in range(n):
                for w, verdict in verdict_items(n, ell):
                    if verdict == NONBINOMIAL:
                        continue
                    init = initial_degree2(n, ell, w)
                    vanset = vanishing_keys(w)
                    alive = [
                        k for k in all_index_keys(n) if k not in vanset
                    ]
                    monomial_count = len(alive) * (len(alive) + 1) // 2
                    assert (
                        monomial_count - init.rank
                        == standard_monomial_count_deg2(n, ell, w)
                    ), (n, ell, w)


def reference_block_matches(layout, alive):
    """The block check by reduced elimination: the projected flag rows are
    row-reduced in (weight, monomial) order, truncated to their pivots'
    weights, and compared with the surviving fiber chains by two more
    reductions."""
    chains = []
    for mask, signs in layout.fibers:
        live = alive & mask
        if live == mask:
            cols = list(signs)
            chains.extend(
                {c1: 1, c2: -signs[c1] * signs[c2]} for c1, c2 in zip(cols, cols[1:])
            )
        elif live:
            return None
    order = sorted(range(len(layout.position)), key=layout.position.__getitem__)
    col_pos = {c: p for p, c in enumerate(c for c in order if alive >> c & 1)}
    projected = (
        {c: v for c, v in row.items() if c in col_pos} for row in layout.rows
    )
    schubert = exactla.rref((row for row in projected if row), col_pos)
    weights = layout.weights
    initial = (
        {c: v for c, v in row.items() if weights[c] == weights[pivot]}
        for pivot, row in zip(schubert.pivots, schubert.rows)
    )
    return span_equal(initial, chains, col_pos)


@pytest.fixture
def patch_block_matches(monkeypatch):
    """Replace ``flagideal._block_matches`` for one test; the all-cuts memo
    is emptied before and after, so no answer of the replacement outlives
    the test."""

    def patch(replacement):
        flagideal._theorem_a_cuts.cache_clear()
        monkeypatch.setattr(flagideal, "_block_matches", replacement)

    yield patch
    flagideal._theorem_a_cuts.cache_clear()


def per_w_block_matches(n, ell, w):
    """Theorem A at one w, block by block: each block's local alive mask
    holds the columns whose two variables both survive ``w``."""
    vanset = vanishing_keys(w)
    live = [key not in vanset for key in all_index_keys(n)]
    answers = []
    for pairs, layout in block_layouts(n, ell):
        mask = sum(1 << c for c, (i, j) in enumerate(pairs) if live[i] and live[j])
        if mask:
            answers.append(flagideal._block_matches(layout, mask))
    return all(answers)


def perturbed_layouts(layout):
    """The layout with other fibers but the same rank target: one fiber
    sign flipped, or one fiber moved onto columns outside every fiber."""
    fibers = [signs for _, signs in layout.fibers]
    inside = {c for signs in fibers for c in signs}
    outside = [c for c in range(len(layout.position)) if c not in inside]
    variants = []
    for f, signs in enumerate(fibers):
        c = next(iter(signs))
        variants.append(fibers[:f] + [{**signs, c: -signs[c]}] + fibers[f + 1:])
        if len(outside) >= len(signs):
            variants.append(
                fibers[:f] + fibers[f + 1:] + [dict.fromkeys(outside[:len(signs)], 1)]
            )
    return [
        layout._replace(fibers=tuple((sum(1 << c for c in s), s) for s in v))
        for v in variants
    ]


def kept(layout):
    """All that ``_block_matches`` reads of a layout: the flag rows, the
    column order, the weight ties, and the fibers with their signs up to
    the sign of a whole fiber."""
    size = len(layout.position)
    ties = {(c, d) for c in range(size) for d in range(c)
            if layout.weights[c] == layout.weights[d]}
    fibers = [(mask, [s * signs[min(signs)] for _, s in sorted(signs.items())])
              for mask, signs in layout.fibers]
    rows = [list(row.items()) for row in layout.rows]
    return rows, layout.position, ties, fibers


class TestTheoremAKernel:
    def test_every_mask_matches_reference_n_le_4(self):
        outcomes = set()
        for n in (3, 4):
            for ell in range(n):
                for b, (_, layout) in enumerate(block_layouts(n, ell)):
                    for mask in range(1, 1 << len(layout.position)):
                        expected = reference_block_matches(layout, mask)
                        assert _block_matches(layout, mask) is expected, (n, ell, b, mask)
                        outcomes.add(expected)
        assert outcomes == {None, True, False}

    def test_perturbed_fibers_match_reference(self):
        # fibers the flag ideal does not have, so that the truncation
        # checks, not the rank, decide
        outcomes = set()
        for n in (3, 4):
            for ell in range(n):
                for b, (_, layout) in enumerate(block_layouts(n, ell)):
                    for variant in perturbed_layouts(layout):
                        for mask in range(1, 1 << len(layout.position)):
                            expected = reference_block_matches(variant, mask)
                            actual = _block_matches(variant, mask)
                            assert actual is expected, (n, ell, b, mask, variant)
                            outcomes.add(expected)
        assert False in outcomes

    @pytest.mark.parametrize("n", (5, 6))
    def test_random_masks_match_reference(self, n):
        rng = random.Random(n)
        outcomes = set()
        for ell in range(n):
            layouts = [layout for _, layout in block_layouts(n, ell)]
            for _ in range(80):
                b = rng.randrange(len(layouts))
                mask = rng.randint(1, (1 << len(layouts[b].position)) - 1)
                expected = reference_block_matches(layouts[b], mask)
                assert _block_matches(layouts[b], mask) is expected, (n, ell, b, mask)
                outcomes.add(expected)
        assert outcomes == {None, True, False}

    @pytest.mark.parametrize("fake", (False, True))
    def test_masks_match_per_w(self, fake, patch_block_matches):
        # the bitset sweep against each block's alive mask read off one w,
        # for every w with n <= 5; a fake block answer that fails often
        # checks the partition itself, and reads only what a layout shared
        # between blocks keeps
        if fake:
            patch_block_matches(
                lambda layout, mask: bool(self._shared_data_answer(layout, mask)),
            )
        failing = 0
        for n in range(3, 6):
            for ell in range(n):
                masks = theorem_a_masks(n, ell, cap=5)
                monomial, _ = verdict_masks(n, ell)
                assert masks.partial == 0
                failing |= masks.failing
                for i, entries in enumerate(itertools.permutations(range(1, n + 1))):
                    free = not monomial >> i & 1
                    assert bool(masks.checked >> i & 1) == free, (n, ell, entries)
                    if free:
                        matches = per_w_block_matches(n, ell, entries)
                        assert bool(masks.failing >> i & 1) != matches, (n, ell, entries)
        assert bool(failing) == fake

    def test_input_checks(self):
        with pytest.raises(ValueError, match="needs n >= 3"):
            theorem_a_masks(2, 0)
        with pytest.raises(ValueError, match="ell must be in"):
            theorem_a_masks(4, 4)
        with pytest.raises(CapabilityError, match="linear-algebra cap is n <= 4"):
            theorem_a_masks(5, 0, cap=4)

    def test_partly_alive_fiber_is_reported_as_data(self, patch_block_matches):
        # a block that finds a fiber partly alive contradicts the verdict:
        # the suite records it and carries on
        checked = run_theorem_a(4).checked
        patch_block_matches(lambda *args: None)
        report = run_theorem_a(4)
        assert not report.ok
        assert report.checked == checked
        assert all("not monomial-free" in m["detail"] for m in report.mismatches)

    def test_answer_depends_only_on_the_shared_layout(self):
        # the pass over all cuts keeps of a cut's layout only the weight
        # ranks and each fiber's signs relative to its first column; the
        # perturbed fibers make some answers False
        outcomes = set()
        for n in (3, 4):
            for ell in range(n):
                for _, layout in block_layouts(n, ell):
                    for variant in [layout, *perturbed_layouts(layout)]:
                        rank = {x: r for r, x in enumerate(sorted(set(variant.weights)))}
                        fibers = tuple(
                            (mask, sum(1 << c for c, s in signs.items() if s != signs[min(signs)]))
                            for mask, signs in variant.fibers
                        )
                        shared = flagideal._block_layout(
                            variant.rows, tuple(rank[x] for x in variant.weights), fibers,
                        )
                        for mask in range(1, 1 << len(layout.position)):
                            answer = _block_matches(variant, mask)
                            assert _block_matches(shared, mask) is answer, (n, ell, mask)
                            outcomes.add(answer)
        assert outcomes == {None, True, False}

    @staticmethod
    def _assert_each_cut_shares_a_layout_it_agrees_with(n):
        # a cut's own layout of a block and the layout it shares agree in
        # all that the check reads; every cut that has the block shares
        # once, and a layout's index stands for its value
        own = [dict(block_layouts(n, ell)) for ell in range(n)]
        indexed = {}
        for pairs, shared in flagideal._shared_layouts(n):
            cuts = sorted(ell for _, _, ells in shared for ell in ells)
            assert cuts == [ell for ell in range(n) if pairs in own[ell]], (n, pairs)
            for index, layout, ells in shared:
                assert kept(indexed.setdefault(index, layout)) == kept(layout), (n, index)
                for ell in ells:
                    assert kept(own[ell].pop(pairs)) == kept(layout), (n, ell, pairs)
        assert not any(own), n
        assert sorted(indexed) == list(range(len(indexed))), n

    @pytest.mark.parametrize("n", range(3, 7))
    def test_each_cut_shares_a_layout_it_agrees_with(self, n):
        self._assert_each_cut_shares_a_layout_it_agrees_with(n)

    @pytest.mark.slow
    def test_each_cut_shares_a_layout_it_agrees_with_n7_slow(self):
        self._assert_each_cut_shares_a_layout_it_agrees_with(7)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_layouts_change_only_at_breakpoints(self, n):
        # the interval rule: from cut ell - 1 to ell, a block's layout
        # changes in nothing the check reads unless ell is the first or
        # second member of one of its variables; some breakpoint does change
        # one, so the rule is not vacuous
        variables = all_index_keys(n)
        own = [dict(block_layouts(n, ell)) for ell in range(n)]
        changed = 0
        for pairs in set().union(*own):
            breaks = {key[k] for pair in pairs for key in map(variables.__getitem__, pair)
                      if len(key) > 1 for k in (0, 1)}
            for ell in range(1, n):
                before, after = own[ell - 1].get(pairs), own[ell].get(pairs)
                same = before is after is None or (
                    before is not None and after is not None and kept(before) == kept(after))
                if ell in breaks:
                    changed += before is not None and after is not None and not same
                else:
                    assert same, (n, pairs, ell)
        assert changed, n

    def test_blocks_share_a_layout_only_with_equal_rows(self, monkeypatch):
        # in the flag ideal, blocks with the same weight ties and fibers
        # have the same rows; dropping the last row of every other block
        # makes them differ, and each block must still get its own rows
        real = flagideal._flag_ideal
        monkeypatch.setattr(flagideal, "_flag_ideal", lambda n: tuple(
            block._replace(rows=block.rows[:-1]) if b % 2 else block
            for b, block in enumerate(real(n))
        ))
        for n in range(3, 7):
            self._assert_each_cut_shares_a_layout_it_agrees_with(n)

    @staticmethod
    def _shared_data_answer(layout, mask):
        # a fake block answer that reads all the shared layout keeps but
        # its rows: the column order, the weight ties, the fiber masks and
        # relative signs
        size = len(layout.position)
        ties = tuple(layout.weights[c] == layout.weights[d]
                     for c in range(size) for d in range(c))
        signs = tuple(s * next(iter(f.values())) for _, f in layout.fibers for s in f.values())
        masks = tuple(m for m, _ in layout.fibers)
        return (None, False, True)[hash((layout.position, ties, signs, masks, mask)) % 3]

    def _assert_cuts_match_reference(self, n, fake, patch_block_matches):
        # the pass over all cuts against each cut decided alone; the fake
        # block answer gives all three answers, so failing and partial are
        # not empty, and differs between cuts that a coarser sharing of
        # layouts would merge
        if fake:
            patch_block_matches(self._shared_data_answer)
        failing = partial = 0
        for ell in range(n):
            masks = theorem_a_masks(n, ell, cap=n)
            assert masks == reference_theorem_a_masks(n, ell), (n, ell)
            failing |= masks.failing
            partial |= masks.partial
        assert bool(failing) == bool(partial) == fake

    @pytest.mark.parametrize("fake", (False, True))
    @pytest.mark.parametrize("n", range(3, 7))
    def test_cuts_match_per_cut_reference(self, n, fake, patch_block_matches):
        self._assert_cuts_match_reference(n, fake, patch_block_matches)

    @pytest.mark.slow
    @pytest.mark.parametrize("fake", (False, True))
    def test_cuts_match_per_cut_reference_n7_slow(self, fake, patch_block_matches):
        self._assert_cuts_match_reference(7, fake, patch_block_matches)

    def test_each_layout_and_mask_is_decided_once(self, patch_block_matches, monkeypatch):
        # the (block, cut) pairs that agree on the flag rows, the weight
        # ties and the fibers (up to the sign of a whole fiber) share one
        # layout, built once per n, and each (layout, alive mask) is decided
        # once per n: at n = 6, 157 block eliminations (1210 with a layout
        # per block, 4795 with each cut decided alone) and 42 layouts for
        # 515 (block, layout) pairs
        calls = []
        real = flagideal._block_matches

        def counted(layout, mask):
            calls.append(mask)
            return real(layout, mask)

        built = []
        real_layout = flagideal._block_layout

        def counted_layout(*args):
            built.append(args)
            return real_layout(*args)

        patch_block_matches(counted)
        monkeypatch.setattr(flagideal, "_block_layout", counted_layout)
        report = run_theorem_a(6, cap=6)
        assert report.ok and report.checked == 938
        assert (len(calls), len(built)) == (5 + 14 + 50 + 157, 3 + 6 + 16 + 42)
        calls.clear()
        built.clear()
        flagideal._theorem_a_cuts.__wrapped__(6)
        assert (len(calls), len(built)) == (157, 42)

    @pytest.mark.slow
    def test_each_layout_and_mask_is_decided_once_n7_slow(self, patch_block_matches, monkeypatch):
        # at n = 7, 501 block eliminations and 95 layouts for 2169 (block,
        # layout) pairs
        calls = []
        built = []
        real, real_layout = flagideal._block_matches, flagideal._block_layout
        patch_block_matches(lambda layout, mask: calls.append(mask) or real(layout, mask))
        monkeypatch.setattr(
            flagideal, "_block_layout", lambda *args: built.append(args) or real_layout(*args),
        )
        masks = flagideal._theorem_a_cuts.__wrapped__(7)
        assert not any(m.failing or m.partial for m in masks)
        assert (len(calls), len(built)) == (501, 95)

    def test_no_answer_outlives_the_call(self, monkeypatch):
        # the layouts and answers are shared only within one call: a fake
        # answer in one run leaves no trace in the next
        monkeypatch.setattr(flagideal, "_block_matches", self._shared_data_answer)
        faked = flagideal._theorem_a_cuts.__wrapped__(5)
        assert any(m.failing and m.partial for m in faked)
        monkeypatch.undo()
        masks = flagideal._theorem_a_cuts.__wrapped__(5)
        assert masks == tuple(reference_theorem_a_masks(5, ell) for ell in range(5))
