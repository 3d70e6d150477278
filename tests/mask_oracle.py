"""Per-permutation builds of the S_n bitset tables of ``mfl.permcomb`` and
``mfl.theoremsets``: the oracles the run-built alive masks, the prefix
masks read off them and the run-built families are compared against, and
the per-w sweep rows the bit-text rows of ``mfl.cli`` are compared
against.  Each passes over all n! permutations.  ``two_pass_alive_masks``
builds the alive masks by a second route, from run-built prefix masks and
a Gale-cover sweep, cheap enough to compare against at n = 9.

``verdict_items`` and ``binomial_members`` read the verdict and family
masks one bit at a time, for tests that walk S_n or the binomial family
per permutation.  ``reference_block_fibers`` and ``reference_fiber_folds``
build the fibers and their folds over S_n one cut at a time, the oracles of
the distinct-fiber table and its folds over all cuts;
``block_layouts`` lays out the flag blocks for one cut alone, and
``reference_theorem_a_masks`` decides Theorem A on them one cut at a time,
the oracle of the pass over all cuts."""

import itertools
import math
from functools import lru_cache, reduce
from operator import itemgetter, or_

from mfl import flagideal
from mfl.matchfield import _swap_flag, image_code, weight_key
from mfl.permcomb import (
    _alive_masks,
    all_index_keys,
    dominated,
    mask_bits,
    permutation_at,
    permutation_index,
    set_bits,
    sorted_prefixes,
    word_text,
)
from mfl.quadideal import _degree_blocks, _fibers, verdict_at, verdict_masks
from mfl.theoremsets import (
    TAG_A1,
    TAG_A2,
    TAG_A2P,
    TAG_A3,
    TAG_AT1,
    TAG_AT2,
    TAG_BASE,
    TAG_EXCEPTIONAL,
    FamilyMasks,
    _oracle_seed,
    _staircase,
    classify_combinatorial,
    exceptional_entries,
    family_masks,
)
from per_w_reference import _double_staircase

_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def to_mask(flags):
    """The bitset whose bit i is the i-th of the booleans ``flags``; the
    inverse of ``mfl.permcomb.mask_bits``.

    >>> to_mask(c == "1" for c in mask_bits(0b110, 4))
    6
    """
    return int(bytes(flags)[::-1].translate(_BIT_DIGITS), 2)


def verdict_items(n, ell, bound=None):
    """The pairs (w, verdict) for every w in S_n, in
    ``itertools.permutations`` order: bit i of ``verdict_masks``."""
    monomial, surviving = verdict_masks(n, ell, bound)
    return [
        (w, verdict_at(monomial, surviving, i))
        for i, w in enumerate(itertools.permutations(range(1, n + 1)))
    ]


def binomial_members(n, ell):
    """The binomial family at (n, ell) as a dict from member to its set of
    clause tags, in ``itertools.permutations`` order: the set bits of
    ``family_masks(n, ell).binomial`` and of its tag masks."""
    masks = family_masks(n, ell)
    return {
        permutation_at(n, i): frozenset(tag for tag, m in masks.tags if m >> i & 1)
        for i in set_bits(masks.binomial)
    }


def reference_block_fibers(n, ell):
    """``mfl.quadideal._fibers(n, ell)`` by splitting each block of
    ``_degree_blocks(n)`` by the image code of its monomials under B_ell
    alone: fibers of size >= 2 in order of first column, each a tuple of
    (local column, image sign)."""
    variables = all_index_keys(n)
    codes = [image_code(n, ell, key) for key in variables]
    signs = [-1 if _swap_flag(ell, key) else 1 for key in variables]
    fibers = []
    for pairs in _degree_blocks(n):
        groups = {}
        for c, (i, j) in enumerate(pairs):
            groups.setdefault(codes[i] + codes[j], []).append((c, signs[i] * signs[j]))
        fibers.append(tuple(tuple(g) for g in groups.values() if len(g) >= 2))
    return tuple(fibers)


def reference_fiber_folds(n, ell):
    """``mfl.quadideal._fiber_folds(n)[ell]`` as a tuple, by one pass over
    the fibers of B_ell alone (``reference_block_fibers``): OR and AND of
    the members' alive bitsets per fiber, folded fiber by fiber."""
    alive = _alive_masks(n)
    va = [alive[key] for key in all_index_keys(n)]
    monomial = surviving = once = twice = 0
    for pairs, fibers in zip(_degree_blocks(n), reference_block_fibers(n, ell)):
        for fiber in fibers:
            some, every = 0, -1
            for c, _ in fiber:
                i, j = pairs[c]
                bits = va[i] & va[j]
                some |= bits
                every &= bits
            monomial |= some & ~every
            surviving |= some
            twice |= every if len(fiber) > 2 else once & every
            once |= every
    return monomial, surviving, once, twice


def block_layouts(n, ell):
    """The blocks of the flag ideal at n that hold a flag row or a fiber of
    cut ``ell``, laid out for that cut alone, with its own weights and
    signs (``_fibers(n, ell)``): pairs (the block of ``_degree_blocks(n)``,
    its layout).  ``flagideal._theorem_a_cuts`` builds one layout for all
    the blocks and cuts that the check sees alike."""
    weight = [weight_key(n, ell, key) for key in all_index_keys(n)]
    return tuple(
        (pairs, flagideal._block_layout(
            block.rows, tuple(weight[i] + weight[j] for i, j in pairs),
            tuple((sum(1 << c for c, _ in fiber), sum(1 << c for c, s in fiber if s < 0))
                  for fiber in fibers),
        ))
        for block, pairs, fibers in zip(
            flagideal._flag_ideal(n), _degree_blocks(n), _fibers(n, ell)
        )
        if block.rows or fibers
    )


def reference_theorem_a_masks(n, ell):
    """``mfl.flagideal.theorem_a_masks(n, ell)`` by a pass over cut ell
    alone, on full-width masks of S_n: per block of ``block_layouts(n,
    ell)``, the cut's own checked set is split by which of the block's
    monomials survive, and each (block, alive mask) is decided by the
    module's ``_block_matches`` (looked up at call time, so a test may
    replace it), with no answer shared between blocks."""
    monomial, _ = verdict_masks(n, ell, bound=n)
    checked = ((1 << math.factorial(n)) - 1) & ~monomial
    alive = _alive_masks(n)
    va = [alive[key] for key in all_index_keys(n)]
    failing = partial = 0
    for pairs, layout in block_layouts(n, ell):
        parts = {0: checked}  # local alive mask -> the w that have it
        for c, (i, j) in enumerate(pairs):
            column = va[i] & va[j]
            refined = {}
            for mask, ws in parts.items():
                on = ws & column
                if on:
                    refined[mask | 1 << c] = on
                if on != ws:
                    refined[mask] = ws ^ on
            parts = refined
        for mask, ws in parts.items():
            if mask:
                answer = flagideal._block_matches(layout, mask)
                if answer is None:
                    partial |= ws
                if not answer:
                    failing |= ws
    return flagideal.TheoremAMasks(checked, failing, partial)


def reference_prefix_set_masks(n):
    """Bit i of entry P is set iff the i-th permutation has
    ``{w_1, ..., w_|P|} = P``, one permutation at a time."""
    masks = {}
    for i, entries in enumerate(itertools.permutations(range(1, n + 1))):
        bit = 1 << i
        for prefix in sorted_prefixes(entries)[:-1]:
            masks[prefix] = masks.get(prefix, 0) | bit
    return masks


def reference_alive_masks(n):
    """Bit i of entry J is set iff J is Gale-below the prefix set of size
    |J| of the i-th permutation, by a scan over every pair of sets."""
    prefix_masks = reference_prefix_set_masks(n)
    alive = {}
    for j in all_index_keys(n):
        mask = 0
        for prefix, bits in prefix_masks.items():
            if len(prefix) == len(j) and dominated(j, prefix):
                mask |= bits
        alive[j] = mask
    return alive


def two_pass_prefix_set_masks(n):
    """Bit i of entry P is set iff the i-th permutation has
    ``{w_1, ..., w_|P|} = P``, from runs of the table at n - 1: such a w
    starts with some v in P and continues, in its run of (n - 1)! bits,
    like a permutation of [n - 1] whose prefix is P - {v} with every
    x > v lowered by one; for |P| = 1 the whole run."""
    if n < 2:
        return {}
    prev = two_pass_prefix_set_masks(n - 1)
    block = math.factorial(n - 1)
    masks = {}
    for prefix in all_index_keys(n):
        mask = 0
        for v in prefix:
            rest = tuple(x - (x > v) for x in prefix if x != v)
            mask |= (prev[rest] if rest else (1 << block) - 1) << (v - 1) * block
        masks[prefix] = mask
    return masks


def two_pass_alive_masks(n):
    """The alive masks from the prefix masks: the sets Gale-above J are J
    and those above its covers, which raise one member j to a free j + 1;
    covers have a larger sum, so the sets are visited by decreasing sum."""
    prefix_masks = two_pass_prefix_set_masks(n)
    alive = {}
    for j in sorted(prefix_masks, key=sum, reverse=True):
        mask = prefix_masks[j]
        for t, v in enumerate(j):
            if v < n and v + 1 not in j:
                mask |= alive[j[:t] + (v + 1,) + j[t + 1:]]
        alive[j] = mask
    return alive


def reference_sweep_rows(n, ell):
    """The rows (ell, w, verdict, class, tags) of ``mfl sweep``, with one
    ``classify_combinatorial`` record per w."""
    rows = []
    for w, verdict in verdict_items(n, ell):
        record = classify_combinatorial(n, ell, w)
        rows.append(
            (
                ell,
                word_text(w),
                verdict,
                record.combinatorial_class,
                ",".join(sorted(record.witness_tags)),
            )
        )
    return rows


def bit(entries):
    return 1 << permutation_index(entries)


@lru_cache(maxsize=10)
def reference_families(n):
    """``mfl.theoremsets._families(n)`` by one pass over S_n that reads, for
    each w, its parent index, the gap between the positions of n and n-1,
    its last three entries, the descending property and its pattern head,
    recursing on itself; the rest are ANDs and ORs of masks lifted from
    S_{n-1}."""
    if n == 1:
        return (FamilyMasks(1, 0, 1, 1, 1, 0, ()),)
    prev = reference_families(n - 1)
    width_prev, width = math.factorial(n - 1), math.factorial(n)
    index_prev = {e: i for i, e in enumerate(itertools.permutations(range(1, n)))}
    free_prev = mask_bits(prev[0].free_312, width_prev)
    parent, gaps, tails, descending = [], [], [], []
    heads = [bytearray(width) for _ in range(n + 1)]  # heads[v]: w_2 = v, head holds
    for i, e in enumerate(itertools.permutations(range(1, n + 1))):
        t = e.index(n)
        parent.append(index_prev[e[:t] + e[t + 1:]])
        gaps.append(t - e.index(n - 1))
        tails.append(e[-3:])
        after = e[t + 1:]
        descending.append(all(a > b for a, b in zip(after, after[1:])))
        v = e[1]
        free = descending[i] and free_prev[parent[i]] == "1"
        if free and e[0] < v:
            # is w|_{w_2} = (w_1, w_2, w_2-1, ..., w_1+1, w_1-1, ..., 1)?
            heads[v][i] = tuple(x for x in e if x <= v) == _double_staircase(e[0], v)
        elif not free and e[0] > v:
            # is w without w_2 312-free?
            rest = tuple(x - (x > v) for x in e if x != v)
            heads[v][i] = free_prev[index_prev[rest]] == "1"

    # character k of a mask's binary text is bit N-1-k, whose parent is
    # character parent[N-1-k] of the bit text over S_{n-1}
    pick = itemgetter(*reversed(parent))

    def lift(mask: int) -> int:
        return int("".join(pick(mask_bits(mask, width_prev))), 2) if mask else 0

    lifted_zero = lift(prev[0].zero)
    desc = to_mask(descending)
    free_312 = lift(prev[0].free_312) & desc
    staircase = lift(prev[0].staircase) | (bit(_staircase(n)) if n >= 3 else 0)
    zero = lifted_zero & to_mask(x[-1] == n or x[-2:] == (n, n - 1) for x in tails)
    # 312-free w belong unless a staircase restriction comes without a
    # double-staircase head at w_2 <= ell; the others iff w_2 = ell and w
    # without w_2 is 312-free
    patterns = [free_312]
    double_heads = 0
    for ell in range(1, n):
        head = to_mask(heads[ell])
        double_heads |= head & free_312
        patterns.append(free_312 & ~(staircase & ~double_heads) | head & ~free_312)

    tags: list[tuple[tuple[str, int], ...]] = [()] * n
    if n == 3:
        tags = [((TAG_BASE, _oracle_seed(ell)),) for ell in range(3)]
    elif n > 3:
        lifted = [lift(masks.binomial) for masks in prev]
        parent_desc = lift(prev[0].descending)
        a1_tails = ((n - 1, n, n - 2), (n, n - 1, n - 2))
        a1 = ((TAG_A1, lifted_zero & to_mask(x in a1_tails for x in tails)),)
        ge_m1, ge_p1, ge_p2 = (to_mask(g >= k for g in gaps) for k in (-1, 1, 2))
        excluded = bit(_staircase(n))
        diag, semi = lifted[0], lifted[n - 2]
        tags[0] = a1 + ((TAG_A2, diag & parent_desc & ge_m1),)
        for ell in range(1, n - 1):
            tags[ell] = a1 + (
                (TAG_A2P, lifted[ell] & parent_desc & ge_m1 & ~excluded),
                (TAG_A3, lifted[ell] & ~parent_desc & ge_p2),
                (TAG_EXCEPTIONAL, bit(exceptional_entries(n, ell))),
            )
        tags[n - 1] = a1 + (
            (TAG_AT1, diag & semi & parent_desc & ge_m1 & ~excluded),
            (TAG_AT2, diag & ~semi & ge_p1),
        )
    return tuple(
        FamilyMasks(zero, reduce(or_, (m for _, m in clauses), 0), pattern,
                    free_312, desc, staircase, clauses)
        for clauses, pattern in zip(tags, patterns)
    )
