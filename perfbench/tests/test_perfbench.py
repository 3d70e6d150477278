"""Tests of the benchmark's own logic (not of mfl).

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


def test_self_times_of_a_synthetic_tree():
    # a[0, 10] -> b[1, 4] -> c[2, 3];  a -> d[5, 9];  e[11, 12] is a root.
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    parents = [-1, 0, 1, 0, -1]
    assert tracer.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_wrapped_calls_nest_and_split_self_time():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def inner():
        clock.advance(2.0)

    inner_traced = t.wrap("m.inner", inner)

    def outer():
        clock.advance(1.0)
        inner_traced()
        clock.advance(3.0)
        inner_traced()

    t.wrap("m.outer", outer)()
    assert list(t.parents) == [-1, 0, 0]
    assert t.summary() == {
        "m.inner": {"calls": 2, "self_s": 4.0},
        "m.outer": {"calls": 1, "self_s": 4.0},
    }


def test_repeat_keys_and_observers_stay_out_of_the_spans():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    class Basis:
        rank = 2
        rows = [{0: 1, 1: -5}, {2: 3}]

    def rref(rows):
        clock.advance(1.0)
        return Basis()

    traced = tracer._count_rows(t, t.wrap("exactla.rref", rref))
    traced([{0: 1}, {1: 1}, {0: 2}])
    keys = t.wrap("permcomb.vanishing_keys", lambda e: frozenset())
    for entries in [(1, 2), (2, 1), (1, 2)]:
        keys(entries)
    assert t.counters == {
        "exactla.rref.rows_in": 3,
        "exactla.rref.rank_out": 2,
        "exactla.max_coeff_bits": 3,
        "permcomb.vanishing_keys.repeats": 1,
    }
    assert t.summary()["exactla.rref"] == {"calls": 1, "self_s": 1.0}


def test_missing_boundary_is_reported_absent_without_failing():
    layer = types.ModuleType("fake.permcomb")
    layer.vanishing_keys = lambda entries: frozenset({entries[:1]})
    user = types.ModuleType("fake.suites")
    user.vanishing_keys = layer.vanishing_keys
    user.REGISTRY = {"keys": layer.vanishing_keys}

    t = tracer.Tracer()
    absent = tracer.install(
        t,
        {"permcomb": ("vanishing_keys", "deleted_function"), "gone": ("f",)},
        {"permcomb": layer, "gone": None},
        [layer, user],
    )
    assert absent == ["permcomb.deleted_function", "gone.f"]
    assert user.vanishing_keys((3, 1, 2)) == frozenset({(3,)})
    assert user.REGISTRY["keys"] is user.vanishing_keys is layer.vanishing_keys
    report = {"functions": t.summary(), "counters": t.counters, "absent": absent}
    values = run.per_layer_metrics(report, overhead_s=0.5)
    assert values["permcomb.vanishing_keys.calls"] == 1
    assert values["permcomb.bruhat_leq.calls"] == 0
    assert values["permcomb.bruhat_leq.self_s"] == 0.0
    assert values["trace.overhead_s"] == 0.5
    assert list(values) == list(run.PER_LAYER)


def _references(stdout: bytes) -> dict:
    digest = hashlib.sha256(stdout).hexdigest()
    return {
        "stdout_sha256": {"verify": digest, "sweep": {"3": digest}},
        "census_n7": {"3": {"binomial": 1, "zero": 1}},
    }


def test_digest_mismatch_is_a_failure_and_not_timed():
    refs = _references(b"PASS all\n")

    def check(code, stdout):
        return run.check_output("verify", 0, code, stdout, refs)

    env = run.child_env(0)
    bad = run.run_sample([sys.executable, "-c", "print('FAIL all')"], env, 60, check,
                         reference=True)
    good = run.run_sample([sys.executable, "-c", "print('PASS all')"], env, 60, check,
                          reference=True)
    assert not bad.ok and "sha256" in bad.error
    assert good.ok and good.ref_rate > 0
    bad.cpu_s = good.cpu_s + 100.0
    metrics = run.end_to_end_metrics([bad, good], setup=[0.25])
    assert metrics["cpu_ref_s"] == good.cpu_ref_s
    assert metrics["setup_s"] == 0.25


def test_cpu_ref_scales_cpu_time_by_the_reference_rate():
    sample = run.Sample(wall_s=9.0, cpu_s=4.0, peak_rss_mb=1.0,
                        ref_rate=run.REF_CHUNKS_PER_S / 2)
    assert sample.cpu_ref_s == 2.0
    assert run.Sample(wall_s=9.0, cpu_s=4.0, peak_rss_mb=1.0).cpu_ref_s is None


def test_exit_code_and_sweep_tally_are_checked():
    stdout = b"n,ell,w,verdict,class,tags\n7,3,123,zero,Z,\n7,3,132,zero,Z,\n"
    refs = _references(stdout)
    assert run.check_output("verify", 0, 1, stdout, refs) == "exit code 1"
    error = run.check_output("sweep", 10, 0, stdout, refs)  # seed 10 -> cut 3
    assert error is not None and "verdict tally" in error


def test_no_sources_is_an_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "verify", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.unit_of(name)) for name in run.PER_LAYER
    ]
