"""Per-permutation builds of the S_n bitset tables of ``mfl.permcomb``: the
oracles the run-built prefix masks and the cover-built alive masks are
compared against, and the per-w sweep rows the bit-text rows of
``mfl.cli`` are compared against.  Each passes over all n! permutations."""

import itertools

from mfl.permcomb import all_index_keys, dominated, sorted_prefixes, word_text
from mfl.quadideal import verdicts_for_all_w
from mfl.theoremsets import classify_combinatorial


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
    for w, verdict in verdicts_for_all_w(n, ell).items():
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
