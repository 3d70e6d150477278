import itertools
import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from mask_oracle import (
    reference_alive_masks,
    reference_prefix_set_masks,
    to_mask,
    two_pass_alive_masks,
)
from mfl.cli import parse_permutation
from mfl.permcomb import (
    MAX_N,
    View,
    _alive_masks,
    all_index_keys,
    bruhat_leq,
    bruhat_minimum,
    bruhat_up_set,
    check_permutation,
    dominated,
    lift_masks,
    mask_bits,
    permutation_at,
    permutation_index,
    prefix_set_mask,
    restriction,
    set_bits,
    suffix_mask,
    vanishing_keys,
    word_text,
    zero_family,
    zero_family_size,
)
from per_w_reference import (
    avoids,
    bruhat_leq_all_prefixes,
    bruhat_up_set_all_prefixes,
    has_descending_property,
    in_zero_family,
    insert_max,
    is_312_free,
    remove_max,
)


def in_zero_family_inductive(w: tuple[int, ...]) -> bool:
    """Inductive form: w ends with n, or with (n, n-1); recurse on the rest.

    The reference for :func:`mfl.permcomb.in_zero_family`.
    """
    n = len(w)
    if n <= 1:
        return True
    if w[-1] == n:
        return in_zero_family_inductive(w[:-1])
    if n >= 2 and w[-1] == n - 1 and w[-2] == n:
        if n == 2:
            return True
        return in_zero_family_inductive(w[:-2])
    return False


def inversions(entries: tuple[int, ...]) -> int:
    return sum(
        1
        for i in range(len(entries))
        for j in range(i + 1, len(entries))
        if entries[i] > entries[j]
    )


@lru_cache(maxsize=256)  # |S_2| + ... + |S_5| = 152
def _bruhat_down_set(we: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """All u <= w by closure of length-decreasing transposition steps.

    Brute-force reachability oracle used to validate the dominance criterion;
    exponential, keep n small.
    """
    n = len(we)
    seen = {we}
    frontier = [we]
    while frontier:
        current = frontier.pop()
        inv = inversions(current)
        for i in range(n):
            for j in range(i + 1, n):
                if current[i] > current[j]:
                    nxt = list(current)
                    nxt[i], nxt[j] = nxt[j], nxt[i]
                    nxt_t = tuple(nxt)
                    if inversions(nxt_t) < inv and nxt_t not in seen:
                        seen.add(nxt_t)
                        frontier.append(nxt_t)
    return frozenset(seen)


def bruhat_leq_oracle(ve: tuple[int, ...], we: tuple[int, ...]) -> bool:
    """Reachability-based Bruhat test (test oracle, small n only)."""
    if len(ve) != len(we):
        raise ValueError(f"size mismatch: {len(ve)} != {len(we)}")
    return ve in _bruhat_down_set(we)


perms = lambda n: st.permutations(range(1, n + 1)).map(tuple)


def permutations_of(n):
    return itertools.permutations(range(1, n + 1))


class TestTypes:
    def test_permutation_validates(self):
        for w, message in (
            ((1, 1, 2), r"not a permutation of \[3\]: \(1, 1, 2\)"),
            ((0, 1), r"not a permutation of \[2\]"),
            ((), r"length must be in 1\.\.16, got 0"),
            (tuple(range(1, 18)), r"length must be in 1\.\.16, got 17"),
            ((2, 1), "permutation length 2 does not match n = 3"),
        ):
            with pytest.raises(ValueError, match=message):
                check_permutation(w, 3)
        assert MAX_N == 16
        check_permutation(tuple(range(16, 0, -1)), 16)

    @given(perms(7))
    def test_string_round_trip(self, w):
        assert parse_permutation(word_text(w), 7) == w

    def test_large_n_serialization(self):
        w = tuple(range(10, 0, -1))
        assert word_text(w) == "10,9,8,7,6,5,4,3,2,1"
        assert parse_permutation(word_text(w), 10) == w

    def test_malformed_strings(self):
        for text, message in (
            ("32x4", "malformed permutation string: '32x4'"),
            ("", "empty permutation string"),
            ("  ", "empty permutation string"),
            ("0123", r"not a permutation of \[4\]: \(0, 1, 2, 3\)"),
            ("1,,2", "malformed permutation string: '1,,2'"),
            (",".join(map(str, range(1, 18))), r"must be in 1\.\.16, got 17"),
            ("321", "permutation '321' has length 3, expected 4"),
        ):
            with pytest.raises(ValueError, match=message):
                parse_permutation(text, 4)
        assert parse_permutation(" 3214 ", 4) == (3, 2, 1, 4)

    def test_index_set_strings(self):
        assert word_text((1, 2, 4)) == "124"
        assert word_text((2, 10)) == "2,10"
        assert word_text((1, 2, 10)) == "1,2,10"
        assert word_text(()) == ""


class TestGaleOrder:
    def test_examples(self):
        assert dominated((1, 2), (2, 3))
        assert not dominated((1, 4), (2, 3))
        a = (1, 3)
        assert dominated(a, a)

    def test_partial_order_exhaustive(self):
        # reflexive, antisymmetric, transitive on equal-size subsets of [5]
        n = 5
        for size in range(1, n):
            subsets = list(itertools.combinations(range(1, n + 1), size))
            for a in subsets:
                assert dominated(a, a)
            for a, b in itertools.permutations(subsets, 2):
                if dominated(a, b) and dominated(b, a):
                    assert a == b
            for a, b, c in itertools.product(subsets, repeat=3):
                if dominated(a, b) and dominated(b, c):
                    assert dominated(a, c)


class TestVanishingSet:
    def test_example(self):
        assert vanishing_keys((3, 2, 1, 4)) == {
            (4,), (1, 4), (2, 4), (3, 4), (1, 2, 4), (1, 3, 4), (2, 3, 4),
        }

    def test_longest_is_empty(self):
        for n in range(2, 7):
            assert vanishing_keys(tuple(range(n, 0, -1))) == frozenset()

    def test_identity_keeps_initial_segments(self):
        n = 5
        surviving = {
            j for size in range(1, n)
            for j in [tuple(range(1, size + 1))]
        }
        van = vanishing_keys(tuple(range(1, n + 1)))
        for size in range(1, n):
            for combo in itertools.combinations(range(1, n + 1), size):
                assert (combo in van) == (combo not in surviving)

    def test_prefix_recursion(self):
        # splitting along the position of n: a subset of size >= t survives
        # iff dropping its largest element survives for w with n removed
        for n in range(3, 7):
            for w in permutations_of(n):
                t = w.index(n) + 1
                van = vanishing_keys(w)
                ul_van = vanishing_keys(remove_max(w))
                for size in range(t, n):
                    for combo in itertools.combinations(range(1, n + 1), size):
                        head = combo[:-1]
                        expected = not head or head not in ul_van
                        assert (combo not in van) == expected, (w, combo)

    def test_descending_prefix_recursion(self):
        # for descending-tail w the tail membership only needs the first t-1
        # entries of the subset
        for n in range(2, 7):
            for w in permutations_of(n):
                if not has_descending_property(w):
                    continue
                t = w.index(n) + 1
                van = vanishing_keys(w)
                prefix = tuple(sorted(w[: t - 1]))
                for size in range(t, n):
                    for combo in itertools.combinations(range(1, n + 1), size):
                        head = combo[: t - 1]
                        expected = all(x <= y for x, y in zip(head, prefix))
                        assert (combo not in van) == expected, (w, combo)


class TestRestriction:
    def test_examples(self):
        w = (1, 4, 2, 3)
        assert restriction(w, 2) == (1, 2)
        assert restriction(w, 4) == (1, 4, 2, 3)
        assert restriction(w, 3) == (1, 2, 3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            restriction((1, 2), 3)
        with pytest.raises(ValueError):
            restriction((1, 2), 0)

    def test_insert_remove_max(self):
        assert insert_max((1, 2), 1) == (1, 3, 2)
        assert insert_max((2, 1), 0) == (3, 2, 1)
        assert remove_max((1, 3, 2)) == (1, 2)
        with pytest.raises(ValueError):
            insert_max((1, 2), 3)
        with pytest.raises(ValueError):
            remove_max((1,))

    @given(perms(6), st.integers(0, 6))
    def test_insert_remove_inverse(self, w, t):
        assert remove_max(insert_max(w, t)) == w


class TestPatterns:
    def test_avoids_examples(self):
        assert not avoids((1, 5, 2, 4, 3), (1, 4, 3, 2))
        assert avoids((1, 5, 2, 4, 3), (2, 3, 1))
        assert not avoids((2, 3, 1), (2, 3, 1))

    def test_pattern_longer_than_word(self):
        with pytest.raises(ValueError):
            avoids((1, 2), (1, 2, 3))

    @given(perms(6))
    def test_312_free_matches_avoids(self, entries):
        assert is_312_free(entries) == avoids(entries, (3, 1, 2))

    def test_descending_property(self):
        assert has_descending_property((4, 3, 2, 1))
        assert not has_descending_property((1, 4, 2, 3))
        assert has_descending_property((2, 1, 4, 3))

    def test_312_free_iff_restrictions_descend(self):
        for n in range(1, 7):
            for w in permutations_of(n):
                free = is_312_free(w)
                all_descend = all(
                    has_descending_property(restriction(w, m))
                    for m in range(1, n + 1)
                )
                assert free == all_descend, w


class TestZeroFamily:
    def test_listings(self):
        assert {word_text(w) for w in zero_family(3)} == {"123", "132", "213"}
        assert {word_text(w) for w in zero_family(4)} == {
            "1234", "1243", "1324", "2134", "2143",
        }

    def test_identity_always_member(self):
        for n in range(1, 8):
            assert in_zero_family(tuple(range(1, n + 1)))

    def test_three_definitions_agree(self):
        for n in range(1, 8):
            family = zero_family(n)
            for w in permutations_of(n):
                closed = in_zero_family(w)
                assert closed == in_zero_family_inductive(w), w
                assert closed == (w in family), w

    def test_size_recurrence(self):
        for n in range(3, 16):
            assert zero_family_size(n) == zero_family_size(n - 1) + zero_family_size(n - 2)
        assert zero_family_size(1) == 1
        assert zero_family_size(2) == 2
        for n in range(1, 9):
            assert len(zero_family(n)) == zero_family_size(n)


class TestBruhat:
    def test_examples(self):
        assert bruhat_leq((2, 1, 3), (3, 2, 1))
        assert not bruhat_leq((3, 1, 2), (2, 3, 1))

    def test_identity_below_everything(self):
        for n in range(1, 6):
            for w in itertools.permutations(range(1, n + 1)):
                assert bruhat_leq(tuple(range(1, n + 1)), w)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            bruhat_leq((1, 2), (1, 2, 3))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_reachability_oracle(self, n):
        elements = list(itertools.permutations(range(1, n + 1)))
        for v in elements:
            for w in elements:
                assert bruhat_leq(v, w) == bruhat_leq_oracle(v, w), (v, w)

    @pytest.mark.slow
    def test_matches_all_prefixes_n6_slow(self):
        # past the reachability oracle's range: the descents of v against
        # every prefix, on all 518400 pairs
        elements = list(itertools.permutations(range(1, 7)))
        for v in elements:
            for w in elements:
                assert bruhat_leq(v, w) == bruhat_leq_all_prefixes(v, w), (v, w)


class TestBitsetsOverSn:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_permutation_index_is_enumeration_rank(self, n):
        for i, entries in enumerate(itertools.permutations(range(1, n + 1))):
            assert permutation_index(entries) == i, entries
            assert permutation_at(n, i) == entries

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_permutation_at_refuses_indices_outside_s_n(self, n):
        last = math.factorial(n) - 1
        assert permutation_at(n, 0) == tuple(range(1, n + 1))
        assert permutation_at(n, last) == tuple(range(n, 0, -1))
        for i in (0, last):
            assert permutation_index(permutation_at(n, i)) == i
        for i in (-1, last + 1):
            with pytest.raises(ValueError, match=rf"0\.\.n!-1 = 0\.\.{last}\b"):
                permutation_at(n, i)

    def test_set_bits(self):
        assert list(set_bits(0)) == []
        mask = (1 << 5039) | (1 << 64) | 0b1011
        assert list(set_bits(mask)) == [0, 1, 3, 64, 5039]

    def test_set_bits_refuses_a_negative_mask(self):
        # a negative int has infinitely many set bits
        with pytest.raises(ValueError, match="non-negative"):
            next(set_bits(-1))

    def test_mask_bits_and_to_mask(self):
        mask = (1 << 5039) | (1 << 64) | 0b1011
        text = mask_bits(mask, 5040)
        assert len(text) == 5040
        assert [i for i, c in enumerate(text) if c == "1"] == list(set_bits(mask))
        assert to_mask(c == "1" for c in text) == mask
        assert mask_bits(0, 3) == "000"
        assert to_mask([False, False]) == 0
        assert to_mask([True, False, True]) == 0b101

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_lift_masks_read_the_parent(self, n):
        rng = random.Random(n)
        masks = [rng.getrandbits(math.factorial(n - 1)) for _ in range(3)] + [0]
        lifted = lift_masks(n, masks)
        for i, w in enumerate(itertools.permutations(range(1, n + 1))):
            parent = permutation_index(remove_max(w))
            for mask, lift in zip(masks, lifted):
                assert lift >> i & 1 == mask >> parent & 1, (w, mask)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_lift_masks_is_a_view_with_repeated_positions(self, n):
        # position i of the lift's view is the parent of the i-th w: n!
        # positions over (n - 1)! bits, each taken n times
        parents = [permutation_index(remove_max(w))
                   for w in itertools.permutations(range(1, n + 1))]
        view = View(math.factorial(n - 1), parents)
        assert sorted(parents) == [p for p in range(view.width) for _ in range(n)]
        rng = random.Random(n)
        masks = [0, (1 << view.width) - 1] + [rng.getrandbits(view.width) for _ in range(3)]
        assert [view.gather(m) for m in masks] == lift_masks(n, masks)
        for mask in masks:
            assert view.gather(mask) == _gathered(mask, parents)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_suffix_mask_matches_the_tails(self, n):
        perms = list(itertools.permutations(range(1, n + 1)))
        for suffix in [(n,), (n, n - 1), (n - 1, n), (n - 1, n, n - 2), (n, n - 1, n - 2)]:
            expected = sum(1 << i for i, w in enumerate(perms) if w[-len(suffix):] == suffix)
            assert suffix_mask(n, suffix) == expected, suffix

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_up_set_matches_bruhat_leq(self, n):
        elements = list(itertools.permutations(range(1, n + 1)))
        for v in elements:
            up = bruhat_up_set(v)
            assert up >> len(elements) == 0
            for i, w in enumerate(elements):
                assert bool(up >> i & 1) == bruhat_leq(v, w), (v, w)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_up_set_matches_all_prefixes(self, n):
        for v in itertools.permutations(range(1, n + 1)):
            assert bruhat_up_set(v) == bruhat_up_set_all_prefixes(v), v

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_up_set_matches_reachability_oracle(self, n):
        elements = list(itertools.permutations(range(1, n + 1)))
        for v in elements:
            up = bruhat_up_set(v)
            for i, w in enumerate(elements):
                assert bool(up >> i & 1) == bruhat_leq_oracle(v, w), (v, w)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_prefix_set_masks_match_reference(self, n):
        masks = {p: prefix_set_mask(n, p) for p in all_index_keys(n)}
        assert masks == reference_prefix_set_masks(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_alive_masks_match_reference(self, n):
        assert _alive_masks(n) == reference_alive_masks(n)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_alive_masks_match_two_pass_build(self, n):
        # the prefix masks and a Gale-cover sweep, a second route that is
        # cheap at n = 9, where the scan oracle is not
        assert _alive_masks(n) == two_pass_alive_masks(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_up_set_has_no_bit_below_its_permutation(self, n):
        # the bit order is a linear extension of Bruhat order, which is
        # what lets bruhat_minimum try only the lowest member
        for entries in itertools.permutations(range(1, n + 1)):
            below = (1 << permutation_index(entries)) - 1
            assert bruhat_up_set(entries) & below == 0, entries

    def test_bruhat_minimum_matches_scalar(self):
        # every subset of S_3, the empty one too, and seeded random subsets
        # of S_4, some of which have a lowest member that is not below all
        # the others
        cases = [(3, mask) for mask in range(64)]
        rng = random.Random(7)
        cases += [(4, rng.getrandbits(24) & rng.getrandbits(24)) for _ in range(400)]
        lowest_not_least = 0
        for n, mask in cases:
            members = [e for i, e in enumerate(itertools.permutations(range(1, n + 1)))
                       if mask >> i & 1]
            least = [e for e in members if all(bruhat_leq(e, o) for o in members)]
            assert bruhat_minimum(n, mask) == (least[0] if least else None), members
            if members and not least:
                lowest_not_least += 1
        assert lowest_not_least > 0

    def test_up_sets_of_extremes(self):
        for n in range(1, 6):
            full = (1 << len(list(permutations_of(n)))) - 1
            longest = tuple(range(n, 0, -1))
            assert bruhat_up_set(tuple(range(1, n + 1))) == full
            assert bruhat_up_set(longest) == 1 << permutation_index(longest)


def _gathered(mask, positions):
    """Bit k is bit ``positions[k]`` of ``mask``, one bit at a time."""
    return sum((mask >> p & 1) << k for k, p in enumerate(positions))


def _views(n):
    """Views over S_n: the empty one, one member, the last bit, all of S_n,
    and random subsets, one of them in no particular order."""
    width = math.factorial(n)
    rng = random.Random(n)
    yield View(width, [])
    yield View(width, [rng.randrange(width)])
    yield View(width, [width - 1])
    yield View(width, list(range(width)))
    for _ in range(3):
        yield View(width, sorted(rng.sample(range(width), rng.randint(1, width))))
    yield View(width, rng.sample(range(width), rng.randint(1, width)))


class TestView:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_gather_reads_each_position(self, n):
        rng = random.Random(n)
        for view in _views(n):
            for mask in (0, (1 << view.width) - 1, rng.getrandbits(view.width)):
                assert view.gather(mask) == _gathered(mask, view.positions), (view.positions, mask)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_scatter_undoes_gather_on_the_view(self, n):
        rng = random.Random(n)
        for view in _views(n):
            on_view = sum(1 << p for p in view.positions)
            for mask in (0, (1 << view.width) - 1, rng.getrandbits(view.width)):
                assert view.scatter(view.gather(mask)) == mask & on_view, (view.positions, mask)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_from_mask_takes_the_set_bits_in_order(self, n):
        width = math.factorial(n)
        rng = random.Random(n)
        for mask in (0, 1, 1 << width - 1, (1 << width) - 1, rng.getrandbits(width)):
            view = View.from_mask(width, mask)
            assert view.width == width
            assert list(view.positions) == list(set_bits(mask))
            assert view.gather(mask) == (1 << len(view.positions)) - 1
            assert view.scatter(view.gather(mask)) == mask
