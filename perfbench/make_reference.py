#!/usr/bin/env python3
"""Write reference.json: the digest of every reference call of each workload.

Run from the repository root on code whose answers are trusted:

    python3 perfbench/make_reference.py

It records one digest per workload, config-seed pool entry and input size,
without the entries the gate holds to an absolute limit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    refs = {}
    for size in ("small", "full"):
        for name, workload in workloads.WORKLOADS.items():
            digests = {}
            for entry in range(workloads.POOL_SIZE):
                call = workload.prepare(workloads.config_seed(entry),
                                        size == "small")
                digest = workload.digest(call())
                digests[str(entry)] = {k: v for k, v in digest.items()
                                       if k not in workloads.LIMITS}
                print(size, name, entry, digests[str(entry)], flush=True)
            refs.setdefault(size, {})[name] = digests
    (HERE / "reference.json").write_text(
        json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
