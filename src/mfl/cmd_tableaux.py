"""``mfl tableaux``: the two-column semi-standard tableaux, and their images
under a matching field."""

from __future__ import annotations

from mfl.cmdutil import SCHEMA, emit_json_listing, parse_permutation


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

        emit_json_listing({"schema": SCHEMA, "n": args.n, "ell": args.ell},
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
