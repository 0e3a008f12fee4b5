"""Self-check of the benchmark harness, on the smallest inputs.

Run from the repository root:

    python3 -m pytest -q perfbench/test_selfcheck.py

It checks that every metric BENCHMARK.json names is printed with its unit,
that the gate rejects every digest entry moved past its tolerance or limit,
that a perturbed reference digest fails every call, and that the harness
refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REFS = json.loads((HERE / "reference.json").read_text())
WORK = HERE / "out" / "selfcheck"

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import workloads  # noqa: E402


def run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--size", "small",
           "--seconds", "0", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    out = result(run("--workload", workload, "--seed", "3",
                     "--trace", str(trace)))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def _perturb(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "-perturbed"
    return list(value) + [None]


def _scaled(value, factor):
    if isinstance(value, list):
        return [_scaled(v, factor) for v in value]
    return value * factor


def test_gate_checks_each_entry():
    reference = [want for size in REFS.values() for digests in size.values()
                 for want in digests.values()]
    tolerant = set()
    for want in reference:
        assert workloads.check(dict(want), want) == []
        for key, value in want.items():
            tol = workloads.TOLERANCES.get(key)
            if tol is None:
                assert workloads.check({**want, key: _perturb(value)}, want)
                continue
            tolerant.add(key)
            within = {**want, key: _scaled(value, 1 + tol / 10)}
            beyond = {**want, key: _scaled(value, 1 + tol * 10)}
            assert workloads.check(within, want) == []
            assert workloads.check(beyond, want), key
    assert tolerant == set(workloads.TOLERANCES)
    want = reference[0]
    for key, limit in workloads.LIMITS.items():
        assert workloads.check({**want, key: limit / 2}, want) == []
        assert workloads.check({**want, key: limit * 2}, want)
        assert workloads.check({**want, key: -limit * 2}, want)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_reference_fails_every_call(workload):
    refs = json.loads((HERE / "reference.json").read_text())
    for digest in refs["small"][workload].values():
        key = sorted(digest)[0]
        digest[key] = _perturb(digest[key])
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"reference-{workload}.json"
    path.write_text(json.dumps(refs))
    out = result(run("--workload", workload, "--seed", "3",
                     "--seconds", "1", "--reference", str(path)))
    assert not out["correct"]
    assert out["failed"] == out["attempted"] >= 1      # fail_frac = 1


def test_refuses_to_run_without_sources():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = run("--workload", WORKLOADS[0], "--seed", "1", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
