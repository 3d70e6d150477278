"""``mfl tables table2``: the census of binomial, zero and non-binomial
restricted ideals of every cut, against the golden counts."""

from __future__ import annotations

import sys

from mfl.cmdutil import SCHEMA, emit_json


def cmd_table2(args) -> int:
    if args.n_max is not None and args.n_max < 3:
        raise ValueError(f"--n-max must be at least 3, got {args.n_max}")
    from mfl import golden
    from mfl.theoremsets import count_table

    n_max = 6 if args.n_max is None else args.n_max
    rows = count_table(3, n_max)
    diffs = []
    for row in rows:
        expected = golden.COUNT_TABLE.get(row.n)
        if expected is not None and row.binomial_count != expected[row.ell]:
            diffs.append((row.n, row.ell, row.binomial_count, expected[row.ell]))
    disagreements = [row for row in rows if row.oracle_counts is not None]
    if args.format == "json":
        emit_json(
            {
                "schema": SCHEMA,
                # oracle_counts only where the oracle disagrees
                "rows": [{k: v for k, v in row._asdict().items() if v is not None}
                         for row in rows],
                "totals": {
                    str(n): sum(r.binomial_count for r in rows if r.n == n)
                    for n in range(3, n_max + 1)
                },
                "printed_totals": golden.COUNT_TABLE_PRINTED_TOTALS,
                "diffs": diffs,
            }
        )
    else:
        print("n,ell,binomial_count,zero_count,nonbinomial_count")
        for row in rows:
            print(
                f"{row.n},{row.ell},{row.binomial_count},"
                f"{row.zero_count},{row.nonbinomial_count}"
            )
        if args.format != "csv":
            for n in range(3, n_max + 1):
                total = sum(r.binomial_count for r in rows if r.n == n)
                printed = golden.COUNT_TABLE_PRINTED_TOTALS.get(n)
                note = ""
                if printed is not None and printed != total:
                    note = (
                        f" (reference prints {printed}; the computed sum"
                        " is authoritative)"
                    )
                print(f"# total n={n}: {total}{note}")
        for row in disagreements:
            binomial, zero = row.oracle_counts
            print(f"mismatch at (n={row.n}, ell={row.ell}): families give "
                  f"binomial={row.binomial_count}, zero={row.zero_count}; "
                  f"the oracle gives binomial={binomial}, zero={zero}",
                  file=sys.stderr)
    return 1 if diffs or disagreements else 0
