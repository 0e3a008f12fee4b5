"""The benchmark's answers at full size, one config seed per workload.

Runs pool entry 0 of each workload in ``perfbench/workloads.py`` at full
size and checks its digest against ``perfbench/reference.json`` with the
benchmark gate's own ``check``, so a change that moves an answer past the
gate's tolerances fails here before the benchmark runs.  It reads both
files and writes neither.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402

REFS = json.loads((PERFBENCH / "reference.json").read_text())["full"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pool_entry_0_matches_reference(name):
    workload = workloads.WORKLOADS[name]
    call = workload.prepare(workloads.config_seed(0), False)
    assert workloads.check(workload.digest(call()), REFS[name]["0"]) == []
