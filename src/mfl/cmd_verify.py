"""``mfl verify``: one named suite of :mod:`mfl.suites`, or all of them."""

from __future__ import annotations

from mfl.cmdutil import check_n_max, emit_json


def cmd_verify(args) -> int:
    if args.suite != "all":  # run_suite refuses any n_max for all
        check_n_max(args.n_max)
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
