#!/usr/bin/env python3
"""jetsolve benchmark: whole public-API calls, timed and checked.

Run from the repository root:

    python3 perfbench/run.py --workload solve-3d-sphere --seed 1 \\
        --seconds 25 --trace 0

One run is one process, with BLAS/OpenMP pinned to one thread.  It makes
calls one after another (a closed loop with one client) until the calls
have taken about ``--seconds`` and at least ``MIN_CALLS`` are done, and
checks every answer against ``reference.json``.  Between the calls it
measures set-up: ``SETUP_PROBES`` fresh child processes, each timed from
spawn until it has imported jetsolve, built its inputs and made a warm-up
call on the smallest grid.

``--trace 0`` prints the end-to-end metrics: the median ``setup_s``, the
median wall ``solve_s`` per call and ``peak_rss_mb``.  ``--trace 1``
alternates untraced and traced calls and prints the per-layer split of the
traced ones (see tracing.py) next to the untraced call time, with the
tracing overhead estimated from the measured cost of one wrapper.  The
share of calls that failed (``fail_frac``) is ``failed / attempted`` in the
last line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A copy with the
environment, every call time and the gate's findings goes to
``perfbench/out/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import COUNTED, TIMED, Tracer, wrapper_costs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# setup_s is the median over this many fresh processes; set-up is short, so
# one probe is easily thrown off by a burst of load from elsewhere.
SETUP_PROBES = 9
# A run makes at least this many calls, so that the median of solve_s
# outlasts one slow call (on lemma-suite-2d the first full-size call of a
# process is about 10% slower than the rest) and a traced run has calls of
# both kinds.
MIN_CALLS = 3


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="'small' runs every call on the smallest grid "
                         "(used by the harness self-check)")
    ap.add_argument("--reference", type=Path, default=HERE / "reference.json",
                    help="reference digests the answers are checked against")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program():
    """Import jetsolve and the workloads from this checkout's sources."""
    sys.path.insert(0, str(SRC))
    import jetsolve
    import workloads

    where = Path(jetsolve.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"jetsolve imported from {where}, not from {SRC}")
    return workloads


def set_up(args):
    """Import, build the first inputs and make the warm-up call."""
    workloads = import_program()
    workload = workloads.WORKLOADS[args.workload]
    reference = json.loads(args.reference.read_text())[args.size][workload.name]
    first = workloads.config_seed(workloads.pool_entry(args.seed, 0))
    workload.prepare(first, False)
    workload.prepare(first, True)()
    return workloads, workload, reference


def probe_set_up(args) -> float:
    """Seconds from spawning a fresh process until it is set up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--reference", str(args.reference)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err}")
    return elapsed


def blas_threads() -> int | str:
    """Thread count OpenBLAS reports, when the library can be asked."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def run_calls(args, workloads, workload, reference):
    """Call until ``--seconds`` of calls are done.

    Returns the call records, the tracer, the traced calls' results and the
    set-up times.
    """
    tracer = Tracer() if args.trace else None
    # set-up is an end-to-end metric; a traced run does not report it
    probes = 0 if args.trace else SETUP_PROBES
    records, traced_results, setup_times = [], [], []
    index = 0
    while True:
        # Only the calls count towards --seconds.  The run stops where the
        # time of its calls ends closest to --seconds, taking the next call
        # to last as long as the median one so far.
        elapsed = sum(r["seconds"] for r in records)
        done = len(records) >= MIN_CALLS and (
            elapsed + statistics.median(r["seconds"] for r in records) / 2
            >= args.seconds)
        # The set-up probes are spread over the run, between calls, so that
        # setup_s samples the same stretch of machine speed as solve_s.
        due = probes
        if not done and elapsed < args.seconds:
            due = min(probes, 1 + int(probes * elapsed / args.seconds))
        while len(setup_times) < due:
            setup_times.append(probe_set_up(args))
        if done:
            break
        traced = bool(args.trace) and index % 2 == 1
        entry = workloads.pool_entry(args.seed, index)
        cfg_seed = workloads.config_seed(entry)
        gc.collect()
        problems, result, seconds = [], None, 0.0
        small = args.size == "small"
        try:
            # a traced call builds its inputs under the tracer too, so the
            # oracles of the systems it builds are counted
            with tracer if traced else contextlib.nullcontext():
                call = workload.prepare(cfg_seed, small)
                t0 = time.perf_counter()
                try:
                    result = tracer.run_call(call) if traced else call()
                finally:
                    seconds = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - a failed call is counted
            traceback.print_exc(file=sys.stderr)
            problems = [f"raised {exc!r}"]
        if not problems:
            problems = workloads.check(workload.digest(result),
                                       reference[str(entry)])
        if traced and result is not None:
            traced_results.append(result)
        records.append({"index": index, "pool_entry": entry,
                        "config_seed": cfg_seed,
                        "traced": traced, "seconds": seconds,
                        "problems": problems})
        index += 1
    return records, tracer, traced_results, setup_times


def end_to_end(setup_times, records) -> dict:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "solve_s": {"value": statistics.median(r["seconds"] for r in records),
                    "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def per_layer(tracer, records, traced_results) -> tuple[dict, dict]:
    """Per-layer metrics, each per traced call; plus notes on empty ones."""
    traced = [r["seconds"] for r in records if r["traced"]]
    untraced = [r["seconds"] for r in records if not r["traced"]]
    calls = len(traced)
    self_times = tracer.self_times()
    span_counts = tracer.span_counts()
    counts = tracer.counts
    notes = {}
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    listed = set()
    for mod, fn in TIMED:
        name = f"{mod}.{fn}"
        listed.add(name)
        put(f"{name}.s", self_times.get(name, 0.0) / calls, "s")
        if name not in span_counts:
            notes[f"{name}.s"] = "not called on this workload"
    for name in COUNTED:
        put(f"{name}.calls", span_counts.get(name, 0) / calls, "count")
    put("reduce.oracle_calls", counts.get("reduce.oracle_calls", 0) / calls,
        "count")
    put("holder.pairs_scanned", counts.get("holder.pairs_scanned", 0) / calls,
        "count")
    # the least-squares plans fd_values built, as the grids cache them
    lsq = sum(1 for g in tracer.grids for key in g._cache if key[0] == "lsq")
    put("grid.lsq_nodes", lsq / calls, "count")
    built = counts.get("grid.pair_sets", 0)
    put("grid.pair_set_complete",
        counts.get("grid.pair_sets_complete", 0) / built if built else 0.0,
        "ratio")
    if not built:
        notes["grid.pair_set_complete"] = "no pair set built; reported as 0"

    sweeps = span_counts.get("picard.picard_map", 0)
    reports = tracer.reports
    # a solve that an oracle error aborted leaves no report: one attempt
    attempts = sum(len(r.attempts) if r is not None else 1 for r in reports)
    useful = sum(r.attempts[-1].iterations for r in reports
                 if r is not None and r.status == "converged")
    put("picard.sweeps", sweeps / calls, "count")
    put("picard.attempts", attempts / calls, "count")
    put("picard.useful_sweep_frac", useful / sweeps if sweeps else 0.0, "ratio")
    if not sweeps:
        notes["picard.useful_sweep_frac"] = "no Picard sweep; reported as 0"

    # only the Kobayashi workload returns estimates, each with its outcomes
    outcomes = [o for result in traced_results if isinstance(result, list)
                for est in result for o in est.outcomes]
    put("kobayashi.useful_solve_frac",
        sum(o.success for o in outcomes) / len(outcomes) if outcomes else 0.0,
        "ratio")
    if not outcomes:
        notes["kobayashi.useful_solve_frac"] = "no Kobayashi search; reported as 0"

    # The traced and untraced calls run on different pool entries at
    # different moments, so on a shared machine their difference is mostly
    # drift.  The overhead is instead what the wrappers cost: every span and
    # every counted oracle call, at the cost of one measured in this run.
    span_cost, counter_cost = wrapper_costs()
    overhead = (len(tracer.spans) * span_cost
                + counts.get("reduce.oracle_calls", 0) * counter_cost)
    unattributed = sum(v for k, v in self_times.items() if k not in listed)
    put("trace.solve_s", sum(traced) / calls, "s")
    put("trace.untraced_solve_s", sum(untraced) / len(untraced), "s")
    put("trace.overhead_s", overhead / calls, "s")
    put("trace.unattributed_s", unattributed / calls, "s")
    return m, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "jetsolve" / "__init__.py").is_file():
        print(f"error: no jetsolve sources in {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"

    if args.setup_probe:
        set_up(args)
        print("ready", flush=True)
        return 0

    workloads, workload, reference = set_up(args)
    records, tracer, traced_results, setup_times = run_calls(
        args, workloads, workload, reference)
    failed = sum(1 for r in records if r["problems"])
    notes = {}
    if args.trace:
        metrics, notes = per_layer(tracer, records, traced_results)
    else:
        metrics = end_to_end(setup_times, records)

    env = environment()
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}-{args.size}"
    OUT.mkdir(exist_ok=True)
    detail = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "size": args.size,
              "environment": env, "setup_s": setup_times,
              "calls": records, "metrics": metrics, "notes": notes}
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.jsonl")

    print(f"environment: {json.dumps(env)}")
    for r in records:
        kind = "traced" if r["traced"] else "untraced"
        status = "ok" if not r["problems"] else "; ".join(r["problems"])
        print(f"call {r['index']} ({kind}): {r['seconds']:.4f} s  {status}")
    print(f"calls: {len(records)}, failed: {failed}, "
          f"fail_frac: {failed / len(records):.4f}")
    for name, why in notes.items():
        print(f"note: {name}: {why}")
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
