"""``mfl tables table1``: the nine restricted ideals at n = 3 and the four
lists of binomial w at n = 4, against the golden tables."""

from __future__ import annotations

from mfl.cmdutil import SCHEMA, emit_json, parse_permutation


def cmd_table1(args) -> int:
    if args.n_max is not None:
        raise ValueError("table1 is fixed at n = 3 and 4; --n-max applies to table2 and zn")
    from mfl import golden
    from mfl.oracle import classify_oracle, mono_key, mono_text
    from mfl.permcomb import permutation_at, set_bits, word_text
    from mfl.quadideal import verdict_masks
    from mfl.theoremsets import family_masks

    diffs = []
    cells = {}
    for (ell, wstr), expected in sorted(golden.IDEALS_N3.items()):
        outcome = classify_oracle(
            3, ell, parse_permutation(wstr, 3), all_pairs=args.all_pairs
        )
        supports = sorted({frozenset(r.lhs + r.rhs) for r in outcome.surviving_binomials},
                          key=sorted)
        expected_supports = sorted(
            {frozenset(m1 + m2) for m1, m2 in expected["binomials"]}, key=sorted
        )
        monos = sorted(outcome.surviving_monomials)
        expected_monos = sorted(mono_key(*m) for m in expected["monomials"])
        if supports != expected_supports or monos != expected_monos:
            diffs.append(("ideal", ell, wstr))
        cells[f"{ell}/{wstr}"] = {
            "generators": [r.text() for r in outcome.surviving_binomials],
            "monomials": [mono_text(m) for m in outcome.surviving_monomials],
        }
    toric = {}
    for ell in range(4):
        monomial, surviving = verdict_masks(4, ell)
        computed, family = (
            [word_text(permutation_at(4, i)) for i in set_bits(mask)]
            for mask in (surviving & ~monomial, family_masks(4, ell).binomial)
        )
        expected = sorted(golden.TORIC_LISTS_N4[ell])
        if computed != expected or family != expected:
            diffs.append(("toric", ell))
        toric[str(ell)] = computed
    if args.format == "json":
        emit_json(
            {"schema": SCHEMA, "ideals_n3": cells, "toric_n4": toric, "diffs": diffs}
        )
    else:
        for key, cell in cells.items():
            gens = "; ".join(cell["generators"] + cell["monomials"])
            print(f"ideal {key}: {gens}")
        for ell, members in toric.items():
            print(f"toric 4/{ell}: {' '.join(members)}")
    return 1 if diffs else 0
