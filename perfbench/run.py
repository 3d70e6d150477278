"""The mfl benchmark: one CLI workload, timed end to end or traced per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Every sample is a fresh ``python -m mfl.cli ...`` process (one worker,
``--jobs 1``), so it pays the cache fills that every real CLI run pays.
Samples run back to back (a closed loop with one client) until the next one
would not fit in ``--seconds``; at least one always runs.  Each sample must
exit 0 and print exactly the stdout recorded in ``references.json``; a sample
that does not is counted as failed and left out of the timings.

The benchmark and its children are pinned to one CPU.  While a timed sample
runs, the benchmark runs a fixed pure-Python reference loop on that CPU, so
the two take turns of a few milliseconds and see the same host speed.  On a
shared host that speed drifts by 10-25% over minutes, which no affordable run
length averages out; scaling the child's CPU time by the reference loop's
rate (``cpu_ref_s``) removes the drift.

``--trace 0`` reports the end-to-end metrics: the median ``cpu_ref_s`` and
peak RSS of the samples, and the median set-up time (``cpu_ref_s`` of a fresh
interpreter that imports the CLI).  ``--trace 1`` instead runs the workload once alone
and once under ``tracer.py``, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the run
context and every sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

from tracer import LAYERS, REPEAT_KEYS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

def sweep_cut(seed: int) -> int:
    """The sweep's cut ``ell`` in 0..6, from the seed."""
    return seed % 7


def workload_argv(name: str, seed: int) -> list[str]:
    """CLI arguments of a workload; only the sweep's cut depends on the seed."""
    if name == "census":
        # Bulk restriction path: verdicts_for_all_w over S_3..S_7, every cut.
        return ["tables", "table2", "--n-max", "7"]
    if name == "sweep":
        # Per-permutation path: classify_oracle and classify_combinatorial
        # for each of the 5040 w in S_7 at one cut.
        return ["sweep", "--n", "7", "--ell", str(sweep_cut(seed))]
    if name == "verify":
        # The default mixed suite; tableaux and Bruhat tests dominate.
        return ["verify", "--suite", "all"]
    if name == "initial-ideal":
        # Theorem A at n = 6: exact elimination dominates.
        return ["--la-cap", "6", "verify", "--suite", "theoremA", "--n-max", "6"]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("census", "sweep", "verify", "initial-ideal")
SETUP_REPEATS = 9
RUN_DEADLINE_S = 170.0  # every child is killed by then, so a run ends in 180 s

END_TO_END = (("cpu_ref_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

# Rate of the reference loop, in chunks per CPU second, at which ``cpu_ref_s``
# equals the child's CPU time.  It is about the loop's rate while it shares
# a CPU with a child, on a 2-vCPU Xeon host with Python 3.11; only ratios of
# ``cpu_ref_s`` between runs on one host matter.
REF_CHUNKS_PER_S = 3300.0


def cpu_ref(cpu_s: float, ref_rate: float) -> float:
    """CPU time at the reference loop's nominal rate, from the CPU time and
    the loop's rate measured on the same CPU over the same interval."""
    return cpu_s * ref_rate / REF_CHUNKS_PER_S


def reference_chunk() -> None:
    """One chunk of the reference loop: dict updates and integer arithmetic,
    the kind of work the mfl sweeps do, independent of mfl's code."""
    table: dict[int, int] = {}
    for i in range(2000):
        key = (i * 7919) % 10007
        table[key] = table.get(key, 0) + 1


# Layers whose boundary functions are reported by self time only.
SELF_ONLY_LAYERS = ("suites", "cli")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (("_s", "s"), ("_ratio", "ratio"), ("_bits", "bits")):
        if name.endswith(suffix):
            return unit
    return "count"


@dataclass
class Sample:
    """One child process: its resources and whether its output was right."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    ref_rate: float | None = None  # reference chunks per CPU second, if run
    error: str | None = None
    loadavg: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def cpu_ref_s(self) -> float | None:
        return None if self.ref_rate is None else cpu_ref(self.cpu_s, self.ref_rate)

    def to_json(self, index: int, traced: bool) -> str:
        return json.dumps({"sample": index, "traced": traced, **asdict(self),
                           "cpu_ref_s": self.cpu_ref_s})


def load_references() -> dict:
    with open(BENCH_DIR / "references.json") as fh:
        return json.load(fh)


def child_env(seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MFL_LA_CAP", None)  # la_cap() reads it; workloads pass --la-cap
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def run_child(cmd: list[str], env: dict[str, str], timeout: float,
              reference: bool = False):
    """Run one child to completion; returns (exit status, stdout, stderr,
    wall seconds, rusage of that child alone, reference rate or None).

    The child is reaped with ``os.wait4`` on its own pid: the rusage of
    ``RUSAGE_CHILDREN`` would carry the largest earlier child's peak RSS.
    With ``reference``, the reference loop runs until the child exits.
    """
    start = time.perf_counter()
    cpu_start = time.process_time()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(max(timeout, 0.0), proc.kill)
    killer.start()
    out: list[bytes] = []
    err: list[bytes] = []
    readers = [threading.Thread(target=lambda: out.append(proc.stdout.read())),
               threading.Thread(target=lambda: err.append(proc.stderr.read()))]
    for reader in readers:
        reader.start()
    chunks = 0
    try:
        if reference:
            pid = 0
            while not pid:
                reference_chunk()
                chunks += 1
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        else:
            _, status, usage = os.wait4(proc.pid, 0)
        for reader in readers:
            reader.join()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    proc.stdout.close()
    proc.stderr.close()
    wall = time.perf_counter() - start
    rate = chunks / max(time.process_time() - cpu_start, 1e-9) if reference else None
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, b"".join(out), b"".join(err), wall, usage, rate


def check_output(workload: str, seed: int, code: int, stdout: bytes,
                 references: dict) -> str | None:
    """Why a run's output is wrong, or None when it matches the reference."""
    if code != 0:
        return f"exit code {code}"
    cut = str(sweep_cut(seed))
    expected = references["stdout_sha256"][workload]
    if workload == "sweep":
        expected = expected[cut]
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != expected:
        return f"stdout sha256 {digest} != reference {expected}"
    if workload == "sweep":
        tally = Counter(line.split(",")[3] for line in stdout.decode().splitlines()[1:])
        census = references["census_n7"][cut]
        if dict(tally) != census:
            return f"verdict tally {dict(tally)} != census row (7, {cut}) {census}"
    return None


def run_sample(cmd: list[str], env: dict[str, str], timeout: float,
               check, reference: bool = False) -> Sample:
    """One child, with its resources; ``check(code, stdout)`` says what is wrong."""
    before = loadavg()
    code, out, err, wall, usage, rate = run_child(cmd, env, timeout, reference)
    error = check(code, out)
    if error is not None and err.strip():
        error += ": " + err.decode(errors="replace").strip().splitlines()[-1]
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                  rate, error, [before, loadavg()])


def timed_samples(cmd, env, check, seconds: float, deadline: float) -> list[Sample]:
    """Samples back to back until the next would end past ``seconds``."""
    samples: list[Sample] = []
    begin = time.perf_counter()
    while True:
        samples.append(run_sample(cmd, env, deadline - time.perf_counter(), check,
                                  reference=True))
        spent = time.perf_counter() - begin
        typical = statistics.median(s.wall_s for s in samples)
        if spent + typical > seconds or time.perf_counter() + typical > deadline:
            return samples


SETUP_CMD = [sys.executable, "-c", "import mfl.cli; mfl.cli.build_parser()"]


def setup_time(env: dict[str, str], deadline: float) -> float:
    """CPU time, at the reference rate, of a fresh interpreter that imports
    the CLI and builds its parser.  The first one in a checkout also writes
    the bytecode caches."""
    code, _, err, _, usage, rate = run_child(
        SETUP_CMD, env, deadline - time.perf_counter(), reference=True)
    if code != 0:
        raise RuntimeError(f"cannot import mfl.cli: {err.decode(errors='replace')}")
    return cpu_ref(usage.ru_utime + usage.ru_stime, rate)


def end_to_end_metrics(samples: list[Sample], setup: list[float]) -> dict[str, float]:
    """Medians over the samples whose output was right."""
    good = [s for s in samples if s.ok]
    if not good:
        return {name: 0.0 for name, _ in END_TO_END}
    return {
        "cpu_ref_s": statistics.median(s.cpu_ref_s for s in good),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in good),
        "setup_s": statistics.median(setup),
    }


def per_layer_metrics(report: dict, overhead_s: float) -> dict[str, float]:
    """Per-layer values from a tracer report.  A boundary function that is
    absent from ``mfl`` reads 0 calls and 0 s; the report lists it."""
    functions, counters = report["functions"], report["counters"]
    values: dict[str, float] = {}
    for layer, fnames in LAYERS.items():
        for fname in fnames:
            entry = functions.get(f"{layer}.{fname}", {"calls": 0, "self_s": 0.0})
            if layer not in SELF_ONLY_LAYERS:
                values[f"{layer}.{fname}.calls"] = entry["calls"]
            values[f"{layer}.{fname}.self_s"] = entry["self_s"]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            entry["self_s"] for name, entry in functions.items()
            if name.startswith(layer + "."))
    for name in REPEAT_KEYS:
        calls = functions.get(name, {}).get("calls", 0)
        values[f"{name}.repeat_ratio"] = (
            counters.get(name + ".repeats", 0) / calls if calls else 0.0)
    rows_in = counters.get("exactla.rref.rows_in", 0)
    rank_out = counters.get("exactla.rref.rank_out", 0)
    values["exactla.rref.rows_in"] = rows_in
    values["exactla.rref.rank_out"] = rank_out
    values["exactla.rref.useful_ratio"] = rank_out / rows_in if rows_in else 0.0
    values["exactla.max_coeff_bits"] = counters.get("exactla.max_coeff_bits", 0)
    values["trace.overhead_s"] = overhead_s
    return values


PER_LAYER = tuple(per_layer_metrics({"functions": {}, "counters": {}}, 0.0))


def traced_run(argv, env, check, deadline: float) -> tuple[Sample, dict | None]:
    """The workload once more under the tracer, with the same output check."""
    fd, out_path = tempfile.mkstemp(prefix=".trace-", suffix=".json", dir=BENCH_DIR)
    os.close(fd)
    try:
        cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), out_path, "--", *argv]
        sample = run_sample(cmd, env, deadline - time.perf_counter(), check)
        report = None
        if sample.ok:
            with open(out_path) as fh:
                report = json.load(fh)
        return sample, report
    finally:
        os.unlink(out_path)


def run_context(workload: str, seed: int, argv: list[str], env: dict[str, str]) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "workload": workload, "seed": seed, "argv": argv,
        "pythonhashseed": env["PYTHONHASHSEED"],
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "cpu_model": cpu, "commit": commit, "pinned_cpu": sorted(os.sched_getaffinity(0)),
    }


def main(arguments: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(arguments)
    if not (SRC / "mfl" / "cli.py").is_file():
        print(f"error: no mfl sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_DEADLINE_S
    # Children inherit the CPU; the reference loop needs to share it.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    references = load_references()
    argv = workload_argv(args.workload, args.seed)
    env = child_env(args.seed)

    def check(code: int, stdout: bytes) -> str | None:
        return check_output(args.workload, args.seed, code, stdout, references)

    print(json.dumps({"context": run_context(args.workload, args.seed, argv, env)}))
    setup_time(env, deadline)  # unrecorded warm-up: compiles the bytecode
    cmd = [sys.executable, "-m", "mfl.cli", *argv]
    if args.trace:
        solo = run_sample(cmd, env, deadline - time.perf_counter(), check)
        traced, report = traced_run(argv, env, check, deadline)
        samples = [solo, traced]
        if solo.ok and report is not None:
            print(json.dumps({"absent": report["absent"], "spans": report["spans"]}))
            metrics = per_layer_metrics(report, traced.wall_s - solo.wall_s)
        else:
            metrics = dict.fromkeys(PER_LAYER, 0.0)
        units = {name: unit_of(name) for name in PER_LAYER}
    else:
        setup = [setup_time(env, deadline) for _ in range(SETUP_REPEATS)]
        samples = timed_samples(cmd, env, check, args.seconds, deadline)
        metrics = end_to_end_metrics(samples, setup)
        units = dict(END_TO_END)
    for i, sample in enumerate(samples):
        print(sample.to_json(i, traced=args.trace == 1 and i == 1))
    failed = sum(not s.ok for s in samples)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    untraced = [s for s in samples[:1 if args.trace else None] if s.ok]
    if untraced:
        # Raw readings, not benchmark metrics: they carry the host's drift.
        print(f"raw cpu_s = {statistics.median(s.cpu_s for s in untraced):.6g} s")
        print(f"raw wall_s = {statistics.median(s.wall_s for s in untraced):.6g} s"
              + ("" if args.trace else " (CPU shared with the reference loop)"))
    print(f"failed_ratio = {failed / len(samples):.6g} ({failed}/{len(samples)} runs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
