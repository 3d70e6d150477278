"""Command-line surface: the parser and the dispatch to each command.

Commands: classify, tables, zn, ideal, tableaux, verify, sweep.
Exit codes: 0 success, 1 verification or golden-table mismatch or output
cut short, 2 usage error.
All output is deterministic for fixed flags; sweeps sort by (n, ell, w)
before emission.  Every command runs in a single process.

Each command's body is a module of its own, ``mfl.cmd_<command>`` (and one
per table of ``tables``), imported only when that command runs, so a run
compiles no other command's code.  The helpers they share are in
:mod:`mfl.cmdutil`.  This module imports only the standard library and
``mfl``, so the parser, ``--help`` and every usage error load no layer; each
command imports the layers it runs (and ``json``, with ``--format json``)
when it runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module

from mfl import SUITES, CapabilityError

#: Each subcommand's body as (module, function), imported when it runs;
#: ``tables`` is looked up by its table.
COMMANDS = {
    "classify": ("mfl.cmd_classify", "cmd_classify"),
    "table1": ("mfl.cmd_table1", "cmd_table1"),
    "table2": ("mfl.cmd_table2", "cmd_table2"),
    "zn": ("mfl.cmd_zn", "cmd_zn"),
    "ideal": ("mfl.cmd_ideal", "cmd_ideal"),
    "tableaux": ("mfl.cmd_tableaux", "cmd_tableaux"),
    "verify": ("mfl.cmd_verify", "cmd_verify"),
    "sweep": ("mfl.cmd_sweep", "cmd_sweep"),
}


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

    p = sub.add_parser("tables", help="reproduce the reference tables")
    p.add_argument("table", choices=("table1", "table2", "zn"))
    p.add_argument("--n-max", type=int, default=None)

    p = sub.add_parser("zn", help="shorthand for 'tables zn'")
    p.add_argument("--n-max", type=int, default=None)

    p = sub.add_parser("ideal", help="print the (restricted) ideal generators")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--w", default=None)

    p = sub.add_parser("tableaux", help="list two-column semi-standard tableaux")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--w", default=None)

    p = sub.add_parser("verify", help="run an exhaustive verification suite")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--n-max", type=int, default=None)

    p = sub.add_parser("sweep", help="classify every permutation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.la_cap is not None and args.la_cap < 0:
        print(f"error: --la-cap must be at least 0, got {args.la_cap}", file=sys.stderr)
        return 2
    module, name = COMMANDS[args.table if args.command == "tables" else args.command]
    try:
        code = getattr(import_module(module), name)(args)
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
