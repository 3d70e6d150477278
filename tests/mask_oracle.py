"""Per-permutation builds of the S_n bitset tables of ``mfl.permcomb``: the
oracles the run-built prefix masks and the cover-built alive masks are
compared against, and the per-w sweep rows the bit-text rows of
``mfl.cli`` are compared against.  Each passes over all n! permutations.

``verdict_items`` and ``binomial_members`` read the verdict and family
masks one bit at a time, for tests that walk S_n or the binomial family
per permutation."""

import itertools

from mfl.permcomb import (
    all_index_keys,
    dominated,
    permutation_at,
    set_bits,
    sorted_prefixes,
    word_text,
)
from mfl.quadideal import verdict_at, verdict_masks
from mfl.theoremsets import classify_combinatorial, family_masks


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
