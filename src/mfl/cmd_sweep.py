"""``mfl sweep``: the verdict, class and witness tags of every w in S_n, at
one cut or all of them."""

from __future__ import annotations

import itertools
import math
import sys

from mfl.cmdutil import SCHEMA, emit_json


def _sweep_rows(n: int, ell: int) -> list[tuple[int, str, str, str, str]]:
    """The rows (ell, w, verdict, class, tags) of every w in S_n, in
    ``itertools.permutations`` order.

    One pass reads character i of the bit texts of the verdict masks, the
    zero and binomial families and the binomial clauses' tag masks; no
    per-w object is built.
    """
    from mfl.permcomb import mask_bits
    from mfl.quadideal import BINOMIAL, NONBINOMIAL, ZERO, verdict_masks
    from mfl.theoremsets import CLASS_N, CLASS_T, CLASS_Z, family_masks

    monomial, surviving = verdict_masks(n, ell)  # the oracle bound is checked first
    families = family_masks(n, ell)
    width = math.factorial(n)
    tags = sorted(families.tags)
    names = [tag for tag, _ in tags]
    texts = [mask_bits(mask, width)
             for mask in (monomial, surviving, families.zero, families.binomial)]
    texts += [mask_bits(mask, width) for _, mask in tags]
    # word_text of each w, from the permutations of the entries' text
    sep = "" if n <= 9 else ","
    words = map(sep.join, itertools.permutations([str(v) for v in range(1, n + 1)]))
    rows = []
    for word, m, s, z, b, *tag_bits in zip(words, *texts):
        verdict = NONBINOMIAL if m == "1" else BINOMIAL if s == "1" else ZERO
        if z == "1":
            cls, witness = CLASS_Z, ""
        elif b == "1":
            cls = CLASS_T
            witness = ",".join(t for t, bit in zip(names, tag_bits) if bit == "1")
        else:
            cls, witness = CLASS_N, ""
        rows.append((ell, word, verdict, cls, witness))
    return rows


def cmd_sweep(args) -> int:
    from mfl.permcomb import check_cut

    if args.n < 3:
        raise ValueError(f"families are defined for n >= 3, got {args.n}")
    if args.ell is not None:
        check_cut(args.n, args.ell)
    ells = [args.ell] if args.ell is not None else list(range(args.n))
    parts = [_sweep_rows(args.n, ell) for ell in ells]
    rows = sorted(r for part in parts for r in part)
    if args.format == "json":
        emit_json(
            {
                "schema": SCHEMA,
                "n": args.n,
                "rows": [
                    {"ell": e, "w": w, "verdict": v, "class": c, "tags": t}
                    for e, w, v, c, t in rows
                ],
            }
        )
    else:
        lines = [f"{args.n},{e},{w},{v},{c},{t}\n" for e, w, v, c, t in rows]
        sys.stdout.write("n,ell,w,verdict,class,tags\n" + "".join(lines))
    return 0
