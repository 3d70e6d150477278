"""``mfl classify``: the oracle's and the families' answers for one
(n, ell, w)."""

from __future__ import annotations

from mfl.cmdutil import emit_json, parse_permutation


def cmd_classify(args) -> int:
    from mfl.oracle import classify_oracle, mono_text
    from mfl.theoremsets import classify_combinatorial

    w = parse_permutation(args.w, args.n)
    outcome = classify_oracle(args.n, args.ell, w, all_pairs=args.all_pairs)
    record = classify_combinatorial(args.n, args.ell, w)
    if args.format == "json":
        obj = outcome.to_json_obj()
        obj["combinatorial_class"] = record.combinatorial_class
        obj["witness_tags"] = sorted(record.witness_tags)
        obj["in_pattern_family"] = record.in_pattern
        emit_json(obj)
    else:
        print(f"verdict: {outcome.verdict}")
        print(f"class: {record.combinatorial_class}")
        print(f"tags: {','.join(sorted(record.witness_tags)) or '-'}")
        print(f"in pattern family: {record.in_pattern}")
        for rel in outcome.surviving_binomials:
            print(f"generator: {rel.text()}")
        for mono in outcome.surviving_monomials:
            print(f"monomial: {mono_text(mono)}")
    return 0
