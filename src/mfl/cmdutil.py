"""What the command modules share: the schema tag of their JSON output, the
parser of ``--w`` and the JSON emitters.

This module does not import :mod:`mfl.cli`: under ``python -m mfl.cli``
that module runs as ``__main__``, and importing it by name would compile it
a second time.
"""

from __future__ import annotations

import sys

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


def emit_json(obj) -> None:
    import json

    print(json.dumps(obj, indent=2, sort_keys=True))


def emit_json_listing(obj, key: str, items) -> None:
    """Print what ``emit_json`` prints for ``obj`` with the list ``items``
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
