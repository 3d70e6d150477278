import itertools
import random

import pytest
from hypothesis import given, strategies as st

from mfl.permcomb import (
    _length_layers,
    Permutation,
    all_permutations,
    avoids,
    bruhat_leq,
    bruhat_leq_oracle,
    bruhat_minimum,
    bruhat_up_set,
    dominated,
    has_descending_property,
    in_zero_family,
    insert_max,
    inversions,
    is_312_free,
    permutation_at,
    permutation_index,
    remove_max,
    restriction,
    set_bits,
    vanishing_keys,
    zero_family,
    zero_family_size,
)
from mfl.quadideal import key_text


def in_zero_family_inductive(w: Permutation) -> bool:
    """Inductive form: w ends with n, or with (n, n-1); recurse on the rest.

    The reference for :func:`mfl.permcomb.in_zero_family`.
    """
    e = w.entries
    n = len(e)
    if n <= 1:
        return True
    if e[-1] == n:
        return in_zero_family_inductive(Permutation(e[:-1]))
    if n >= 2 and e[-1] == n - 1 and e[-2] == n:
        if n == 2:
            return True
        return in_zero_family_inductive(Permutation(e[:-2]))
    return False


perms = lambda n: st.permutations(range(1, n + 1)).map(tuple)


class TestTypes:
    def test_permutation_validates(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))
        with pytest.raises(ValueError):
            Permutation((0, 1))
        with pytest.raises(ValueError):
            Permutation(tuple(range(1, 18)))

    @given(perms(7))
    def test_string_round_trip(self, entries):
        w = Permutation(entries)
        assert Permutation.from_string(w.to_string()) == w

    def test_large_n_serialization(self):
        w = Permutation(tuple(range(10, 0, -1)))
        assert w.to_string() == "10,9,8,7,6,5,4,3,2,1"
        assert Permutation.from_string(w.to_string()) == w

    def test_malformed_strings(self):
        with pytest.raises(ValueError):
            Permutation.from_string("32x4")
        with pytest.raises(ValueError):
            Permutation.from_string("")

    def test_index_set_strings(self):
        assert key_text((1, 2, 4)) == "124"
        assert key_text((2, 10)) == "2,10"


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
            assert vanishing_keys(Permutation.longest(n).entries) == frozenset()

    def test_identity_keeps_initial_segments(self):
        n = 5
        w = Permutation.identity(n)
        surviving = {
            j for size in range(1, n)
            for j in [tuple(range(1, size + 1))]
        }
        van = vanishing_keys(w.entries)
        for size in range(1, n):
            for combo in itertools.combinations(range(1, n + 1), size):
                assert (combo in van) == (combo not in surviving)

    def test_prefix_recursion(self):
        # splitting along the position of n: a subset of size >= t survives
        # iff dropping its largest element survives for w with n removed
        for n in range(3, 7):
            for w in all_permutations(n):
                t = w.position_of(n) + 1
                van = vanishing_keys(w.entries)
                ul_van = vanishing_keys(remove_max(w).entries)
                for size in range(t, n):
                    for combo in itertools.combinations(range(1, n + 1), size):
                        head = combo[:-1]
                        expected = not head or head not in ul_van
                        assert (combo not in van) == expected, (w, combo)

    def test_descending_prefix_recursion(self):
        # for descending-tail w the tail membership only needs the first t-1
        # entries of the subset
        for n in range(2, 7):
            for w in all_permutations(n):
                if not has_descending_property(w):
                    continue
                t = w.position_of(w.n) + 1
                van = vanishing_keys(w.entries)
                prefix = tuple(sorted(w.entries[: t - 1]))
                for size in range(t, n):
                    for combo in itertools.combinations(range(1, n + 1), size):
                        head = combo[: t - 1]
                        expected = all(x <= y for x, y in zip(head, prefix))
                        assert (combo not in van) == expected, (w, combo)


class TestRestriction:
    def test_examples(self):
        w = Permutation((1, 4, 2, 3))
        assert restriction(w, 2).entries == (1, 2)
        assert restriction(w, 4).entries == (1, 4, 2, 3)
        assert restriction(w, 3).entries == (1, 2, 3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            restriction(Permutation((1, 2)), 3)
        with pytest.raises(ValueError):
            restriction(Permutation((1, 2)), 0)

    def test_insert_remove_max(self):
        assert insert_max(Permutation((1, 2)), 1).entries == (1, 3, 2)
        assert insert_max(Permutation((2, 1)), 0).entries == (3, 2, 1)
        assert remove_max(Permutation((1, 3, 2))).entries == (1, 2)
        with pytest.raises(ValueError):
            insert_max(Permutation((1, 2)), 3)

    @given(perms(6), st.integers(0, 6))
    def test_insert_remove_inverse(self, entries, t):
        w = Permutation(entries)
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
        assert has_descending_property(Permutation((4, 3, 2, 1)))
        assert not has_descending_property(Permutation((1, 4, 2, 3)))
        assert has_descending_property(Permutation((2, 1, 4, 3)))

    def test_312_free_iff_restrictions_descend(self):
        for n in range(1, 7):
            for w in all_permutations(n):
                free = is_312_free(w.entries)
                all_descend = all(
                    has_descending_property(restriction(w, m))
                    for m in range(1, n + 1)
                )
                assert free == all_descend, w


class TestZeroFamily:
    def test_listings(self):
        assert {w.to_string() for w in zero_family(3)} == {"123", "132", "213"}
        assert {w.to_string() for w in zero_family(4)} == {
            "1234", "1243", "1324", "2134", "2143",
        }

    def test_identity_always_member(self):
        for n in range(1, 8):
            assert in_zero_family(Permutation.identity(n))

    def test_three_definitions_agree(self):
        for n in range(1, 8):
            family = zero_family(n)
            for w in all_permutations(n):
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


class TestBitsetsOverSn:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_permutation_index_is_enumeration_rank(self, n):
        for i, entries in enumerate(itertools.permutations(range(1, n + 1))):
            assert permutation_index(entries) == i, entries
            assert permutation_at(n, i) == entries

    def test_set_bits(self):
        assert list(set_bits(0)) == []
        mask = (1 << 5039) | (1 << 64) | 0b1011
        assert list(set_bits(mask)) == [0, 1, 3, 64, 5039]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_up_set_matches_bruhat_leq(self, n):
        elements = list(itertools.permutations(range(1, n + 1)))
        for v in elements:
            up = bruhat_up_set(v)
            assert up >> len(elements) == 0
            for i, w in enumerate(elements):
                assert bool(up >> i & 1) == bruhat_leq(v, w), (v, w)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_up_set_matches_reachability_oracle(self, n):
        elements = list(itertools.permutations(range(1, n + 1)))
        for v in elements:
            up = bruhat_up_set(v)
            for i, w in enumerate(elements):
                assert bool(up >> i & 1) == bruhat_leq_oracle(v, w), (v, w)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_length_layers_count_inversions(self, n):
        layers = _length_layers(n)
        assert len(layers) == n * (n - 1) // 2 + 1
        for i, entries in enumerate(itertools.permutations(range(1, n + 1))):
            assert [k for k, layer in enumerate(layers) if layer >> i & 1] == [
                inversions(entries)
            ], entries

    def test_bruhat_minimum_matches_scalar(self):
        # every subset of S_3 and seeded random subsets of S_4, some of which
        # have one shortest member that is not below all the others
        cases = [(3, mask) for mask in range(64)]
        rng = random.Random(7)
        cases += [(4, rng.getrandbits(24) & rng.getrandbits(24)) for _ in range(400)]
        shortest_not_least = 0
        for n, mask in cases:
            members = [e for i, e in enumerate(itertools.permutations(range(1, n + 1)))
                       if mask >> i & 1]
            least = [e for e in members if all(bruhat_leq(e, o) for o in members)]
            assert bruhat_minimum(n, mask) == (least[0] if least else None), members
            lengths = sorted(inversions(e) for e in members)
            if not least and len(lengths) > 1 and lengths[0] < lengths[1]:
                shortest_not_least += 1
        assert shortest_not_least > 0

    def test_up_sets_of_extremes(self):
        for n in range(1, 6):
            full = (1 << len(list(all_permutations(n)))) - 1
            assert bruhat_up_set(Permutation.identity(n).entries) == full
            top = permutation_index(Permutation.longest(n).entries)
            assert bruhat_up_set(Permutation.longest(n).entries) == 1 << top
