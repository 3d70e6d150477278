"""``mfl zn`` (and ``mfl tables zn``): the zero family Z_n, listed to
n = 8 and counted to ``--n-max``, against the golden lists."""

from __future__ import annotations

from mfl.cmdutil import SCHEMA, emit_json


def cmd_zn(args) -> int:
    if args.n_max is not None and args.n_max < 3:
        raise ValueError(f"--n-max must be at least 3, got {args.n_max}")
    from mfl import golden
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
        emit_json(
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
