"""The stdout of the four benchmark workloads, run in process, against the
SHA-256 digests recorded in ``perfbench/references.json``: a change that
alters a workload's output fails here before the benchmark counts its
samples as failed."""

import hashlib
import json
import pathlib

import pytest

from mfl.cli import main

REFERENCES = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "references.json"

WORKLOADS = [
    ("census", None, ["tables", "table2", "--n-max", "7"]),
    *(("sweep", str(ell), ["sweep", "--n", "7", "--ell", str(ell)]) for ell in range(7)),
    ("verify", None, ["verify", "--suite", "all"]),
    ("initial-ideal", None,
     ["--la-cap", "6", "verify", "--suite", "theoremA", "--n-max", "6"]),
]


@pytest.fixture(scope="module")
def digests():
    return json.loads(REFERENCES.read_text())["stdout_sha256"]


@pytest.mark.parametrize(
    "workload, key, argv", WORKLOADS,
    ids=[name if key is None else f"{name}-{key}" for name, key, _ in WORKLOADS],
)
def test_stdout_matches_reference(capsys, digests, workload, key, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    expected = digests[workload] if key is None else digests[workload][key]
    assert hashlib.sha256(out.encode()).hexdigest() == expected
