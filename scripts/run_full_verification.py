#!/usr/bin/env python3
"""Run every verification suite at its widest configured range.

Equivalent to `mfl verify --suite all` plus, with --slow, two n = 6 sweeps:
the degree-two initial-ideal equality (938 monomial-free cases, about a
second once the n = 6 flag ideal is built) and the tableaux suite (230977
checks, a few seconds), and the n = 8 census: the zero, binomial and
pattern families against the restriction kernel with the oracle bound
raised to 8, for every cut (a few seconds).
"""

import argparse
import sys
import time

from mfl import golden
from mfl.suites import run_suite, run_tableaux, run_theorem_a
from mfl.theoremsets import cross_validate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--slow", action="store_true",
                        help="extend the degree-two equality and tableaux "
                        "sweeps to n = 6 and the census to n = 8")
    args = parser.parse_args()

    failures = 0
    start = time.perf_counter()
    report = run_suite("all")
    status = "PASS" if report.ok else "FAIL"
    print(f"{status} all ({report.checked} checks, "
          f"{len(report.mismatches)} mismatches)")
    for mismatch in report.mismatches[:20]:
        print(f"  {mismatch}")
    failures += 0 if report.ok else 1

    if args.slow:
        report = run_theorem_a(6, cap=6)
        status = "PASS" if report.ok else "FAIL"
        print(f"{status} theoremA n=6 ({report.checked} monomial-free cases)")
        failures += 0 if report.ok else 1
        report = run_tableaux(6)
        status = "PASS" if report.ok else "FAIL"
        print(f"{status} tableaux n<=6 ({report.checked} checks, "
              f"{len(report.mismatches)} mismatches)")
        failures += 0 if report.ok else 1
        census = cross_validate(8, oracle_bound=8)
        ok = census.ok and census.binomial_counts() == golden.COUNT_TABLE[8]
        print(f"{'PASS' if ok else 'FAIL'} census n=8 ({len(census.mismatches)} "
              f"mismatches, binomial counts {census.binomial_counts()})")
        for mismatch in census.mismatches[:20]:
            print(f"  {mismatch}")
        failures += 0 if ok else 1

    print(f"total time {time.perf_counter() - start:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
