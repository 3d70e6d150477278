#!/usr/bin/env python3
"""Recompute every bundled reference table and diff against the goldens.

Writes CSV/JSON artifacts under out/ (created next to this script unless
--out is given) and exits non-zero if any computed value differs from the
golden data in mfl.golden.
"""

import argparse
import json
import pathlib
import sys

from mfl import golden
from mfl.permcomb import Permutation, zero_family
from mfl.quadideal import classify_oracle, mono_text
from mfl.theoremsets import binomial_family, count_table


def write(path: pathlib.Path, text: str) -> None:
    path.write_text(text)
    print(f"wrote {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--n-max", type=int, default=6)
    args = parser.parse_args()
    out_dir = pathlib.Path(args.out or pathlib.Path(__file__).parent / "out")
    out_dir.mkdir(parents=True, exist_ok=True)

    failures = 0

    # classification counts
    rows = count_table(3, args.n_max, mode="both")
    csv_lines = ["n,ell,binomial_count,zero_count,nonbinomial_count"]
    for row in rows:
        csv_lines.append(
            f"{row.n},{row.ell},{row.binomial_count},{row.zero_count},"
            f"{row.nonbinomial_count}"
        )
        expected = golden.COUNT_TABLE.get(row.n)
        if expected is not None and expected[row.ell] != row.binomial_count:
            print(f"DIFF count at (n={row.n}, ell={row.ell})")
            failures += 1
        if row.oracle_counts is not None:
            print(f"DIFF oracle counts {row.oracle_counts} at (n={row.n}, ell={row.ell})")
            failures += 1
    write(out_dir / "counts.csv", "\n".join(csv_lines) + "\n")

    # small ideals and binomial lists
    cells = {}
    for (ell, wstr) in sorted(golden.IDEALS_N3):
        outcome = classify_oracle(3, ell, Permutation.from_string(wstr))
        cells[f"{ell}/{wstr}"] = {
            "generators": [r.text() for r in outcome.surviving_binomials],
            "monomials": [mono_text(m) for m in outcome.surviving_monomials],
        }
    toric = {
        ell: sorted(Permutation(e).to_string() for e in binomial_family(4, ell))
        for ell in range(4)
    }
    for ell, members in toric.items():
        if tuple(members) != tuple(sorted(golden.TORIC_LISTS_N4[ell])):
            print(f"DIFF binomial list at ell={ell}")
            failures += 1
    write(
        out_dir / "small_tables.json",
        json.dumps({"ideals_n3": cells, "toric_n4": toric}, indent=2, sort_keys=True)
        + "\n",
    )

    # zero family listings
    zn = {
        n: sorted(p.to_string() for p in zero_family(n)) for n in range(3, 8)
    }
    write(out_dir / "zero_family.json", json.dumps(zn, indent=2) + "\n")
    for n, expected in golden.ZERO_FAMILY_LISTS.items():
        if zn[n] != sorted(expected):
            print(f"DIFF zero family at n={n}")
            failures += 1

    print("all tables match" if failures == 0 else f"{failures} diffs")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
