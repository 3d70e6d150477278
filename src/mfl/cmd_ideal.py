"""``mfl ideal``: the surviving generators of one restricted ideal."""

from __future__ import annotations

from mfl.cmdutil import emit_json, parse_permutation


def cmd_ideal(args) -> int:
    from mfl.oracle import classify_oracle, mono_text
    from mfl.quadideal import _check_case

    if args.w is not None:
        w = parse_permutation(args.w, args.n)
    else:
        _check_case(args.n, args.ell)  # name n, not the default word
        w = tuple(range(args.n, 0, -1))
    outcome = classify_oracle(args.n, args.ell, w, all_pairs=args.all_pairs)
    if args.format == "json":
        emit_json(outcome.to_json_obj())
    else:
        for rel in outcome.surviving_binomials:
            print(rel.text())
        for mono in outcome.surviving_monomials:
            print(mono_text(mono))
    return 0
