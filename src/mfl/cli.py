"""Command-line surface.

Commands: classify, tables, zn, ideal, tableaux, verify, sweep.
Exit codes: 0 success, 1 verification or golden-table mismatch or output
cut short, 2 usage error.
All output is deterministic for fixed flags; sweeps sort by (n, ell, w)
before emission.  Every command runs in a single process.  The parser, and
so ``--help`` and every usage error, loads no layer: this module imports
only the standard library and ``mfl`` at the top, and each command imports
the layers it runs (and ``json``, with ``--format json``) when it runs.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

from mfl import SUITES, CapabilityError

SCHEMA = "mfl/1"


def parse_permutation(text: str, n: int) -> tuple[int, ...]:
    """Parse ``--w``: ``"3214"`` (values up to 9) or comma-separated
    ``"10,3,..."`` with a number in every field, which must be a
    permutation of [n]."""
    from mfl.permcomb import check_permutation

    stripped = text.strip()
    if not stripped:
        raise ValueError("empty permutation string")
    parts = stripped.split(",") if "," in stripped else list(stripped)
    if not all(p.strip().isdecimal() for p in parts):
        raise ValueError(f"malformed permutation string: {stripped!r}")
    w = tuple(int(p) for p in parts)
    check_permutation(w, len(w))  # length 1..MAX_N, each of 1..len(w) once
    if len(w) != n:
        raise ValueError(f"permutation {text!r} has length {len(w)}, expected {n}")
    return w


def _emit_json(obj) -> None:
    import json

    print(json.dumps(obj, indent=2, sort_keys=True))


def _emit_json_listing(obj, key: str, items) -> None:
    """Print what ``_emit_json`` prints for ``obj`` with the list ``items``
    added under ``key``, one item at a time as ``items`` yields it.
    ``obj`` must be non-empty, and ``key`` must sort after its keys."""
    import json

    write = sys.stdout.write
    head = json.dumps(obj, indent=2, sort_keys=True)[:-2]  # without "\n}"
    write(f"{head},\n  {json.dumps(key)}: [")
    sep = "\n"
    for item in items:
        text = json.dumps(item, indent=2, sort_keys=True).replace("\n", "\n    ")
        write(f"{sep}    {text}")
        sep = ",\n"
    write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args) -> int:
    from mfl.quadideal import classify_oracle, mono_text
    from mfl.theoremsets import classify_combinatorial

    w = parse_permutation(args.w, args.n)
    outcome = classify_oracle(args.n, args.ell, w, all_pairs=args.all_pairs)
    record = classify_combinatorial(args.n, args.ell, w)
    if args.format == "json":
        obj = outcome.to_json_obj()
        obj["combinatorial_class"] = record.combinatorial_class
        obj["witness_tags"] = sorted(record.witness_tags)
        obj["in_pattern_family"] = record.in_pattern
        _emit_json(obj)
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


# ---------------------------------------------------------------------------
# tables


def cmd_tables(args) -> int:
    from mfl import golden

    which = args.table
    if which == "table1" and args.n_max is not None:
        raise ValueError("table1 is fixed at n = 3 and 4; --n-max applies to table2 and zn")
    if args.n_max is not None and args.n_max < 3:
        raise ValueError(f"--n-max must be at least 3, got {args.n_max}")
    if which == "table2":
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
            _emit_json(
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

    if which == "zn":
        from mfl.permcomb import MAX_N, word_text, zero_family, zero_family_size

        if args.n_max is not None and args.n_max > MAX_N:
            raise ValueError(f"--n-max must be at most {MAX_N}, got {args.n_max}")
        n_max = 15 if args.n_max is None else args.n_max
        diffs = []
        listing = {}
        for n in range(3, min(n_max, 8) + 1):
            members = sorted(word_text(w) for w in zero_family(n))
            listing[n] = members
            expected = golden.ZERO_FAMILY_LISTS.get(n)
            if expected is not None and tuple(members) != tuple(sorted(expected)):
                diffs.append(("list", n))
        sizes = {n: zero_family_size(n) for n in range(1, n_max + 1)}
        diffs.extend(
            ("size", n) for n, members in listing.items() if len(members) != sizes[n]
        )
        if args.format == "json":
            _emit_json(
                {"schema": SCHEMA, "listing": listing, "sizes": sizes, "diffs": diffs}
            )
        else:
            print("n,member")
            for n, members in listing.items():
                for m in members:
                    print(f"{n},{m}")
            if args.format != "csv":
                for n, size in sizes.items():
                    print(f"# |Z_{n}| = {size}")
        return 1 if diffs else 0

    # table1: the nine n = 3 cells and the four n = 4 binomial lists
    from mfl.permcomb import permutation_at, set_bits, word_text
    from mfl.quadideal import classify_oracle, mono_key, mono_text, verdict_masks
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
        _emit_json(
            {"schema": SCHEMA, "ideals_n3": cells, "toric_n4": toric, "diffs": diffs}
        )
    else:
        for key, cell in cells.items():
            gens = "; ".join(cell["generators"] + cell["monomials"])
            print(f"ideal {key}: {gens}")
        for ell, members in toric.items():
            print(f"toric 4/{ell}: {' '.join(members)}")
    return 1 if diffs else 0


# ---------------------------------------------------------------------------
# ideal


def cmd_ideal(args) -> int:
    from mfl.quadideal import _check_case, classify_oracle, mono_text

    if args.w is not None:
        w = parse_permutation(args.w, args.n)
    else:
        _check_case(args.n, args.ell)  # name n, not the default word
        w = tuple(range(args.n, 0, -1))
    outcome = classify_oracle(args.n, args.ell, w, all_pairs=args.all_pairs)
    if args.format == "json":
        _emit_json(outcome.to_json_obj())
    else:
        for rel in outcome.surviving_binomials:
            print(rel.text())
        for mono in outcome.surviving_monomials:
            print(mono_text(mono))
    return 0


# ---------------------------------------------------------------------------
# tableaux


def cmd_tableaux(args) -> int:
    from mfl.permcomb import MAX_N, check_cut

    if args.n < 2:
        raise ValueError(f"tableaux need n >= 2, got {args.n}")
    if args.n > MAX_N:
        raise ValueError(f"n must be at most {MAX_N}, got {args.n}")
    if args.ell is not None:
        check_cut(args.n, args.ell)
    from mfl.matchfield import display_key
    from mfl.tableaux import enumerate_ssyt2, ssyt_to_matching_field

    w = parse_permutation(args.w, args.n) if args.w is not None else None
    items = enumerate_ssyt2(args.n, w)

    def image(columns):  # the matching-field tableau, in B_ell order
        return [display_key(args.n, args.ell, c)
                for c in ssyt_to_matching_field(columns, args.ell)]

    if args.format == "json":
        def entry(columns):
            obj = {"columns": [[str(v) for v in c] for c in columns]}
            if args.ell is not None:
                obj["image"] = [[str(v) for v in c] for c in image(columns)]
            return obj

        _emit_json_listing({"schema": SCHEMA, "n": args.n, "ell": args.ell},
                           "tableaux", map(entry, items))
    else:
        for columns in items:
            print(_render(columns))
            if args.ell is not None:
                print("->")
                print(_render(image(columns)))
            print()
    return 0


def _render(columns) -> str:
    """Rows of cells right-aligned to one width, joined by ``" | "``."""
    width = max(len(str(v)) for col in columns for v in col)
    return "\n".join(
        " | ".join(str(col[r]).rjust(width) for col in columns if len(col) > r)
        for r in range(len(columns[0]))
    )


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    from mfl.permcomb import MAX_N

    if args.suite == "all" and args.n_max is not None:
        raise ValueError(
            "--n-max applies to a single suite; --suite all runs each at its default range"
        )
    if args.n_max is not None and args.n_max < 3:
        raise ValueError(f"--n-max must be at least 3, got {args.n_max}")
    if args.n_max is not None and args.n_max > MAX_N:
        raise ValueError(f"--n-max must be at most {MAX_N}, got {args.n_max}")
    from mfl.suites import run_suite

    report = run_suite(args.suite, n_max=args.n_max, cap=args.la_cap)
    if args.format == "json":
        _emit_json(report.to_json_obj())
    else:
        status = "PASS" if report.ok else "FAIL"
        print(f"{status} {report.suite} ({report.checked} checks, "
              f"{len(report.mismatches)} mismatches)")
        for m in report.mismatches[:20]:
            print(f"  mismatch: {m}")
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# sweep


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
        _emit_json(
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


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfl",
        description="Restricted matching field ideals of Schubert varieties",
    )
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--la-cap", type=int, default=None,
                        help="cap for the exact linear-algebra oracle")
    parser.add_argument("--all-pairs", action="store_true",
                        help="emit all within-fiber relation pairs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one (n, ell, w)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--w", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("tables", help="reproduce the reference tables")
    p.add_argument("table", choices=("table1", "table2", "zn"))
    p.add_argument("--n-max", type=int, default=None)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("zn", help="shorthand for 'tables zn'")
    p.add_argument("--n-max", type=int, default=None)
    p.set_defaults(func=cmd_tables, table="zn")

    p = sub.add_parser("ideal", help="print the (restricted) ideal generators")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--w", default=None)
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("tableaux", help="list two-column semi-standard tableaux")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--w", default=None)
    p.set_defaults(func=cmd_tableaux)

    p = sub.add_parser("verify", help="run an exhaustive verification suite")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--n-max", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="classify every permutation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, default=None)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.la_cap is not None and args.la_cap < 0:
        print(f"error: --la-cap must be at least 0, got {args.la_cap}", file=sys.stderr)
        return 2
    try:
        code = args.func(args)
        sys.stdout.flush()
    except (ValueError, CapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush
        # at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
