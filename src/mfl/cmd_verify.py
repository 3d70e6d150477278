"""``mfl verify``: one named suite of :mod:`mfl.suites`, or all of them."""

from __future__ import annotations

from mfl.cmdutil import emit_json


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
        emit_json(report.to_json_obj())
    else:
        status = "PASS" if report.ok else "FAIL"
        print(f"{status} {report.suite} ({report.checked} checks, "
              f"{len(report.mismatches)} mismatches)")
        for m in report.mismatches[:20]:
            print(f"  mismatch: {m}")
    return 0 if report.ok else 1
