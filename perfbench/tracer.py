"""Traced run of one mfl CLI invocation, for the per-layer numbers.

Usage::

    PYTHONPATH=src python3 perfbench/tracer.py OUT.json -- <mfl arguments>

The script wraps every boundary function listed in ``LAYERS`` in every
``mfl.*`` module namespace (and module-level dict, such as the suite
registry) that binds it, then calls ``mfl.cli.main(argv)``.  The CLI's
stdout passes through untouched, so the caller can check its digest.  Each
call records a span (name, start, end, parent) in memory; at exit the spans
are reduced to per-function call counts and self times, which are written to
OUT.json together with the layer counters.

Counter bookkeeping (repeat keys, coefficient sizes) runs on a paused clock,
so it lands in no span; it shows only in the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from types import ModuleType
from typing import Callable, Iterable

# Layer (module under ``mfl``) -> its boundary functions.  A later change may
# delete some of them; they are then reported absent, never an error.
LAYERS: dict[str, tuple[str, ...]] = {
    "permcomb": ("vanishing_keys", "in_zero_family", "bruhat_leq"),
    "matchfield": ("verify_coherence", "variable_image_key"),
    "quadideal": (
        "verdicts_for_all_w",
        "classify_oracle",
        "quadratic_relations",
        "degree2_flag_ideal",
        "initial_degree2",
        "surviving_binomial_space",
        "matches_initial_degree2",
    ),
    "exactla": ("rref", "left_kernel"),
    "theoremsets": (
        "binomial_family",
        "in_pattern_family",
        "cross_validate",
        "count_table",
        "classify_combinatorial",
    ),
    "tableaux": (
        "verify_bijection",
        "is_standard",
        "ssyt_to_matching_field",
        "min_defining_chain2",
        "min_defining_chain2_exhaustive",
        "enumerate_ssyt2",
    ),
    "suites": (
        "run_suite",
        "run_coherence",
        "run_theorem_b",
        "run_theorem_c",
        "run_pattern",
        "run_theorem_a",
        "run_tableaux",
        "run_a1_rank",
    ),
    "cli": ("cmd_classify", "cmd_tables", "cmd_ideal", "cmd_tableaux",
            "cmd_verify", "cmd_sweep"),
}

# Boundaries whose repeated work is counted: the key says which part of the
# call identifies the work (a ``w`` for vanishing sets, an ``(n, ell)`` for
# the bulk verdict sweep, whatever ``bound`` it is given).
REPEAT_KEYS: dict[str, Callable[[tuple], object]] = {
    "permcomb.vanishing_keys": lambda args: args[0],
    "quadideal.verdicts_for_all_w": lambda args: args[:2],
}


def _coeff_bits(values: Iterable[int]) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


class Tracer:
    """Span recorder with per-boundary counters.

    Spans live in flat arrays (name id, start, end, parent index) because a
    run makes hundreds of thousands of boundary calls.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._paused = 0.0
        self.names: list[str] = []
        self.name_ids: array = array("i")
        self.starts: array = array("d")
        self.ends: array = array("d")
        self.parents: array = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._seen: dict[str, set] = {name: set() for name in REPEAT_KEYS}

    def now(self) -> float:
        return self._clock() - self._paused

    def wrap(self, name: str, fn: Callable) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        observe = _OBSERVERS.get(name)
        repeat_key = REPEAT_KEYS.get(name)
        seen = self._seen.get(name)

        def traced(*args, **kwargs):
            index = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(index)
            start = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.now()
                self._stack.pop()
                self.starts[index] = start
                self.ends[index] = end
            if observe is not None or seen is not None:
                pause = self._clock()
                if seen is not None:
                    key = repeat_key(args)
                    if key in seen:
                        self.bump(name + ".repeats")
                    else:
                        seen.add(key)
                if observe is not None:
                    observe(self, args, kwargs, result)
                self._paused += self._clock() - pause
            return result

        return functools.wraps(fn)(traced)

    def bump(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def raise_to(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-function ``{"calls": ..., "self_s": ...}`` from the spans."""
        self_s = self_times(self.starts, self.ends, self.parents)
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for name_id, seconds in zip(self.name_ids, self_s):
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["self_s"] += seconds
        return out


def self_times(starts, ends, parents) -> list[float]:
    """Self time of each span: its duration minus its child spans.

    Spans come from one thread and nest, so the children of a span cover
    disjoint parts of it.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for s, e, parent in zip(starts, ends, parents):
        if parent >= 0:
            out[parent] -= e - s
    return out


def _observe_rref(tracer: Tracer, args, kwargs, basis) -> None:
    tracer.bump("exactla.rref.rank_out", basis.rank)
    tracer.raise_to(
        "exactla.max_coeff_bits",
        max((_coeff_bits(row.values()) for row in basis.rows), default=0),
    )


def _observe_left_kernel(tracer: Tracer, args, kwargs, kernel) -> None:
    tracer.raise_to(
        "exactla.max_coeff_bits",
        max((_coeff_bits(vec) for vec in kernel), default=0),
    )


_OBSERVERS = {
    "exactla.rref": _observe_rref,
    "exactla.left_kernel": _observe_left_kernel,
}


def _count_rows(tracer: Tracer, fn: Callable) -> Callable:
    """``rref`` takes any iterable of rows; count them on the way in."""

    def counted(rows, *args, **kwargs):
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        tracer.bump("exactla.rref.rows_in", len(rows))
        return fn(rows, *args, **kwargs)

    return counted


def install(
    tracer: Tracer,
    layers: dict[str, tuple[str, ...]],
    modules: dict[str, ModuleType | None],
    namespaces: Iterable[ModuleType],
) -> list[str]:
    """Replace each boundary function with a traced wrapper.

    ``modules`` maps a layer name to its module (None if it is gone);
    every binding of the original function in ``namespaces``, and in their
    module-level dicts, is replaced.  Returns the boundaries not found.
    """
    namespaces = list(namespaces)
    absent = []
    for layer, functions in layers.items():
        module = modules.get(layer)
        for fname in functions:
            name = f"{layer}.{fname}"
            original = getattr(module, fname, None)
            if not callable(original):
                absent.append(name)
                continue
            wrapper = tracer.wrap(name, original)
            if name == "exactla.rref":
                wrapper = _count_rows(tracer, wrapper)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                    elif type(value) is dict:
                        for k, v in value.items():
                            if v is original:
                                value[k] = wrapper
    return absent


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py OUT.json -- <mfl arguments>", file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"mfl.{layer}")
        except ModuleNotFoundError:
            modules[layer] = None
    import mfl.cli

    namespaces = [m for name, m in sys.modules.items()
                  if isinstance(m, ModuleType) and (name == "mfl" or name.startswith("mfl."))]
    tracer = Tracer()
    absent = install(tracer, LAYERS, modules, namespaces)
    code = mfl.cli.main(cli_argv)
    sys.stdout.flush()
    report = {
        "absent": absent,
        "spans": len(tracer.starts),
        "functions": tracer.summary(),
        "counters": tracer.counters,
    }
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
