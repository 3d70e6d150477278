"""Permutations of [n] and the subset combinatorics of Schubert vanishing sets.

Conventions used throughout the package:

- A permutation is a plain tuple in one-line notation ``w = (w_1, ..., w_n)``
  with ``w_i = w(i)``, values 1-based.  Positions reported by helper
  functions are 0-based unless stated otherwise.
- An index set is a non-empty proper subset ``J`` of ``[n] = {1, ..., n}``,
  stored as a strictly increasing tuple.  It labels the Pluecker variable
  ``P_J``.
- The Gale order compares equal-size index sets elementwise after sorting:
  ``{a_1 < ... < a_m} <= {b_1 < ... < b_m}`` iff ``a_k <= b_k`` for all ``k``.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import gt, itemgetter
from typing import Iterable, Iterator, Sequence

#: Hard implementation bound; the classification sweeps use n <= 7.
MAX_N = 16


def check_permutation(w: Sequence[int], n: int) -> None:
    """Raise ValueError unless ``w`` is a permutation of [n] in one-line
    notation with ``1 <= n <= MAX_N``; the per-w entry points call it.

    >>> check_permutation((3, 1, 2), 3)
    >>> check_permutation((3, 1, 2), 4)
    Traceback (most recent call last):
    ...
    ValueError: permutation length 3 does not match n = 4
    """
    m = len(w)
    if not 1 <= m <= MAX_N:
        raise ValueError(f"permutation length must be in 1..{MAX_N}, got {m}")
    if sorted(w) != list(range(1, m + 1)):
        raise ValueError(f"not a permutation of [{m}]: {tuple(w)}")
    if m != n:
        raise ValueError(f"permutation length {m} does not match n = {n}")


def check_cut(n: int, ell: int) -> None:
    """Raise ValueError unless ``ell`` is a block cut of [n]: 0 <= ell < n."""
    if not 0 <= ell <= n - 1:
        raise ValueError(f"ell must be in 0..{n - 1}, got {ell}")


def word_text(values: Sequence[int]) -> str:
    """A one-line word or an index set as text: digits when every value is
    at most 9, comma-separated otherwise.

    >>> word_text((3, 2, 1, 4)), word_text((2, 10))
    ('3214', '2,10')
    """
    sep = "" if all(v <= 9 for v in values) else ","
    return sep.join(map(str, values))


# ---------------------------------------------------------------------------
# Gale order and vanishing sets


def dominated(members: Sequence[int], sorted_prefix: Sequence[int]) -> bool:
    """Gale order on equal-size index sets: ``members <= sorted_prefix``
    elementwise, both sorted.

    >>> dominated((1, 2), (2, 3))
    True
    >>> dominated((1, 4), (2, 3))
    False
    """
    return not any(map(gt, members, sorted_prefix))


def sorted_prefixes(entries: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """``sorted({w_1, ..., w_k})`` for k = 1..n, indexed by k-1."""
    return tuple(tuple(sorted(entries[:k])) for k in range(1, len(entries) + 1))


def vanishing_keys(entries: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """The vanishing set S_w of the one-line word ``entries``, as sorted
    member tuples.

    S_w consists of the J with ``J`` not Gale-below ``{w_1, ..., w_|J|}``; the
    Pluecker variables P_J with J in S_w are set to zero on X(w).

    >>> sorted(vanishing_keys((3, 2, 1, 4)), key=lambda j: (len(j), j))
    [(4,), (1, 4), (2, 4), (3, 4), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    """
    n = len(entries)
    prefixes = sorted_prefixes(entries)
    return frozenset(
        combo
        for size in range(1, n)
        for combo in itertools.combinations(range(1, n + 1), size)
        if not dominated(combo, prefixes[size - 1])
    )


# ---------------------------------------------------------------------------
# Restriction


def restriction(w: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Remove the values m+1, ..., n from w; a permutation of [m].

    >>> restriction((1, 4, 2, 3), 2)
    (1, 2)
    >>> restriction((1, 4, 2, 3), 3)
    (1, 2, 3)
    """
    if not 1 <= m <= len(w):
        raise ValueError(f"m must be in 1..{len(w)}, got {m}")
    return tuple(v for v in w if v <= m)


# ---------------------------------------------------------------------------
# The zero family Z_n


def zero_family(n: int) -> frozenset[tuple[int, ...]]:
    """All products of pairwise non-adjacent simple transpositions in S_n."""
    out = set()
    positions = range(1, n)  # s_i swaps i and i+1
    for size in range(0, n // 2 + 1):
        for combo in itertools.combinations(positions, size):
            if any(b - a < 2 for a, b in zip(combo, combo[1:])):
                continue
            entries = list(range(1, n + 1))
            for i in combo:
                entries[i - 1], entries[i] = entries[i], entries[i - 1]
            out.add(tuple(entries))
    return frozenset(out)


def zero_family_size(n: int) -> int:
    """|Z_n| via the Fibonacci-style recurrence |Z_n| = |Z_{n-1}| + |Z_{n-2}|
    from |Z_0| = |Z_1| = 1."""
    before, size = 1, 1
    for _ in range(n - 1):
        before, size = size, before + size
    return size


# ---------------------------------------------------------------------------
# Bruhat order


def descent_prefixes(entries: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """``sorted({v_1, ..., v_k})`` at each descent k of ``entries``, the k
    with ``v_k > v_{k+1}``, in increasing order of k.

    >>> list(descent_prefixes((2, 4, 1, 3)))
    [(2, 4)]
    """
    return (tuple(sorted(entries[:k])) for k in range(1, len(entries))
            if entries[k - 1] > entries[k])


def bruhat_leq(ve: Sequence[int], we: Sequence[int]) -> bool:
    """Bruhat order on one-line words via the dominance criterion.

    ``v <= w`` iff for every k the sorted prefix {v_1, ..., v_k} is
    Gale-below the sorted prefix {w_1, ..., w_k}, and it is enough to
    compare them at the descents k of v, the k with v_k > v_{k+1} (Bjorner
    and Brenti, *Combinatorics of Coxeter Groups*, section 2.6).

    >>> bruhat_leq((2, 1, 3), (3, 2, 1))
    True
    >>> bruhat_leq((3, 1, 2), (2, 3, 1))
    False
    """
    if len(ve) != len(we):
        raise ValueError(f"size mismatch: {len(ve)} != {len(we)}")
    for k in range(1, len(ve)):
        if ve[k - 1] > ve[k] and not dominated(sorted(ve[:k]), sorted(we[:k])):
            return False
    return True


# ---------------------------------------------------------------------------
# Bitsets over S_n
#
# Bit i of every mask below stands for the i-th permutation of [n] in
# ``itertools.permutations`` order, whose rank :func:`permutation_index`
# computes.  The w with w_1 = v are the run of (n - 1)! bits from bit
# (v - 1) (n - 1)!, ordered like S_{n-1} on the other values, so the
# survival table at n is built from runs of the table at n - 1.


def permutation_index(entries: Sequence[int]) -> int:
    """Rank of ``entries`` in ``itertools.permutations(range(1, n + 1))``
    order, i.e. its bit position in the bitsets over S_n.

    >>> permutation_index((1, 2, 3)), permutation_index((2, 3, 1)), permutation_index((3, 2, 1))
    (0, 3, 5)
    """
    n = len(entries)
    index = 0
    for pos, v in enumerate(entries):
        index = index * (n - pos) + sum(1 for u in entries[pos + 1:] if u < v)
    return index


def permutation_at(n: int, index: int) -> tuple[int, ...]:
    """Inverse of :func:`permutation_index`: the permutation of [n] at bit
    ``index``.

    >>> permutation_at(3, 3)
    (2, 3, 1)
    """
    if not 0 <= index < math.factorial(n):
        raise ValueError(f"index must be in 0..n!-1 = 0..{math.factorial(n) - 1}, got {index}")
    values = list(range(1, n + 1))
    out = []
    for k in range(n - 1, -1, -1):
        q, index = divmod(index, math.factorial(k))
        out.append(values.pop(q))
    return tuple(out)


def set_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask`` >= 0, in increasing order.

    >>> list(set_bits(0b101001))
    [0, 3, 5]
    """
    if mask < 0:
        raise ValueError(f"mask must be non-negative, got {mask}")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_bits(mask: int, width: int) -> str:
    """The bits 0..width-1 of ``mask`` as text: character i is ``"1"``
    iff bit i is set (the reversed, zero-padded binary text).

    >>> mask_bits(0b110, 4)
    '0110'
    """
    return format(mask, f"0{width}b")[::-1]


class View:
    """Bit k of a gather is bit ``positions[k]`` of a mask ``width`` bits
    wide, read off its :func:`mask_bits` text so that no step shifts a wide
    int.  Gathers may repeat positions; scatters back need distinct ones.

    >>> view = View.from_mask(6, 0b101100)
    >>> view.positions, bin(view.gather(0b100101)), bin(view.scatter(0b110))
    ([2, 3, 5], '0b101', '0b101000')
    """

    def __init__(self, width: int, positions: Sequence[int]) -> None:
        self.width, self.positions = width, positions
        self._pick = itemgetter(width, *reversed(positions))  # bit width: a leading "0"

    @classmethod
    def from_mask(cls, width: int, mask: int) -> View:  # its set bits, in order
        return cls(width, [i for i, c in enumerate(mask_bits(mask, width)) if c == "1"])

    def gather(self, mask: int) -> int:
        return int("".join(self._pick(mask_bits(mask, self.width + 1))), 2) if mask else 0

    def scatter(self, mask: int) -> int:
        text, bits = bytearray(b"0") * self.width, mask_bits(mask, len(self.positions))
        for p in itertools.compress(self.positions, map("1".__eq__, bits)):
            text[p] = 49  # "1"
        return int(text[::-1], 2) if mask else 0


def repeat_run(mask: int, width: int, count: int) -> int:
    """``mask``, ``width`` bits wide, copied into runs 0..count-1.

    >>> bin(repeat_run(0b01, 2, 3))
    '0b10101'
    """
    return sum(mask << r * width for r in range(count))


def suffix_mask(n: int, suffix: tuple[int, ...]) -> int:
    """The w in S_n that end with ``suffix``, some of the largest values of
    [n]: in each run v below them, the w whose rest ends so.

    >>> bin(suffix_mask(3, (3,)))
    '0b101'
    """
    if n == len(suffix):
        return 1 << permutation_index(suffix)
    rest = suffix_mask(n - 1, tuple(x - 1 for x in suffix))
    return repeat_run(rest, math.factorial(n - 1), n - len(suffix))


def lift_masks(n: int, masks: Iterable[int]) -> list[int]:
    """Each mask over S_{n-1} (n >= 2) lifted to S_n: the gather of the
    :class:`View` whose position i is the parent of the i-th w, w with n
    deleted.  The parent of a w in run v < n is the parent of its rest,
    moved to run v of S_{n-1}; in run n it is the rest itself.

    >>> [bin(m) for m in lift_masks(3, [0b01, 0b10])]
    ['0b10011', '0b101100']
    """
    parents = [0]  # over S_1
    for m in range(2, n + 1):
        sub = math.factorial(m - 2)
        parents = [v * sub + p for v in range(m - 1) for p in parents] + list(
            range(len(parents)))
    return list(map(View(math.factorial(n - 1), parents).gather, masks))


@lru_cache(maxsize=8)  # the tableaux suite reads n = 3..8; a build reads n - 1
def _alive_masks(n: int) -> dict[tuple[int, ...], int]:
    """Bit i of entry J is set iff P_J survives on X(w) for the i-th
    permutation w, i.e. J is Gale-below ``{w_1, ..., w_|J|}``.

    Counting the members >= s on each side, J is Gale-below {v} + Q
    exactly when J has a member at most v and J without its largest such
    member J[t] is Gale-below Q.  So in the runs v = J[t] .. J[t+1] - 1 (the
    last to n) the entry is that at n - 1 of J[:t] and J[t+1:] lowered by
    one, or all of the run when that is empty; runs below J[0] are 0.

    >>> {j: bin(m) for j, m in _alive_masks(3).items()}
    {(1,): '0b111111', (2,): '0b111100', (3,): '0b110000', (1, 2): '0b111111', (1, 3): '0b111010', (2, 3): '0b101000'}
    """
    if n < 2:
        return {}
    prev = _alive_masks(n - 1)
    block = math.factorial(n - 1)
    full = (1 << block) - 1
    masks = {}
    for j in all_index_keys(n):
        mask, lowered = 0, tuple(x - 1 for x in j)
        for t, (low, high) in enumerate(zip(j, j[1:] + (n + 1,))):
            run = prev.get(j[:t] + lowered[t + 1:], full)  # () for |J| = 1
            for v in range(low - 1, high - 1):
                mask |= run << v * block
        masks[j] = mask
    return masks


def prefix_set_mask(n: int, prefix: tuple[int, ...]) -> int:
    """Bitset over S_n of the w with ``{w_1, ..., w_|P|} = P``: the w in
    ``alive[P]`` and in no ``alive`` of a cover of P, which raises one
    member j to a free j + 1.  Each cover's set lies inside P's, so XOR
    takes their union out.

    >>> bin(prefix_set_mask(3, (1, 3)))
    '0b10010'
    """
    alive = _alive_masks(n)
    above = 0
    for t, v in enumerate(prefix):
        if v < n and v + 1 not in prefix:
            above |= alive[prefix[:t] + (v + 1,) + prefix[t + 1:]]
    return alive[prefix] ^ above


def bruhat_up_set(entries: tuple[int, ...]) -> int:
    """Bitset over S_n of the w with ``entries`` Bruhat-below w.

    By the dominance criterion of :func:`bruhat_leq`, v <= w iff the sorted
    prefix {v_1, ..., v_k} is Gale-below {w_1, ..., w_k} at every descent k
    of v (Bjorner and Brenti, section 2.6).  ``alive[J]`` is exactly the set
    of w with J Gale-below {w_1, ..., w_|J|}, so the up-set of v is the AND
    of ``alive[J]`` over the :func:`descent_prefixes` J of v.  The
    Grassmannian permutation (I, [n] minus I) has no descent but |I|, so
    its up-set is ``alive[I]``.

    >>> up = bruhat_up_set((2, 1, 3))
    >>> [w for i, w in enumerate(itertools.permutations((1, 2, 3))) if up >> i & 1]
    [(2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    """
    alive = _alive_masks(len(entries))
    mask = (1 << math.factorial(len(entries))) - 1
    for prefix in descent_prefixes(entries):
        mask &= alive[prefix]
    return mask


def bruhat_minimum(n: int, members: int) -> tuple[int, ...] | None:
    """The Bruhat-least permutation of the bitset ``members`` over S_n, or
    None when there is none.

    By the dominance criterion, v <= w with v != w puts v_k < w_k at the
    first position k where they differ, so v comes first in
    ``itertools.permutations`` order: the bit order is a linear extension
    of Bruhat order.  The only possible least member is therefore the
    lowest set bit, and it is the least if its up-set
    (:func:`bruhat_up_set`) holds every member.

    >>> bruhat_minimum(3, 0b011000), bruhat_minimum(3, 0b011010), bruhat_minimum(3, 0)
    (None, (1, 3, 2), None)
    """
    if not members:
        return None
    least = permutation_at(n, (members & -members).bit_length() - 1)
    return None if members & ~bruhat_up_set(least) else least


# ---------------------------------------------------------------------------
# Enumeration helpers


def all_index_keys(n: int) -> tuple[tuple[int, ...], ...]:
    """All non-empty proper subsets of [n] as sorted member tuples,
    ordered by (size, lexicographic)."""
    out = []
    for size in range(1, n):
        out.extend(itertools.combinations(range(1, n + 1), size))
    return tuple(out)
