#!/usr/bin/env python3
"""Solve the minimal-surface equation over a disk with a prescribed 1-jet.

Prints the attempt history (radius, gamma, outcome, contraction ratios) and
optionally writes the standard report/field artifacts.

Usage:
    python3 scripts/run_minimal_surface.py --slope 0.3 --res 41
    python3 scripts/run_minimal_surface.py --R0 3.0 --seed-amplitude 0.6 \
        --gamma0 40 --report out.json
"""

import argparse
import json
import sys

import numpy as np

from jetsolve import (
    HarmonicPolynomial,
    JetSpec,
    SolveConfig,
    SolveFailure,
    minimal_surface_system,
    solve_system,
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--R0", type=float, default=1.0, help="starting radius")
    p.add_argument("--res", type=int, default=33, help="grid resolution")
    p.add_argument("--slope", type=float, default=0.3,
                   help="jet slope along the first axis")
    p.add_argument("--seed-amplitude", type=float, default=0.0,
                   help="amplitude of a saddle-shaped harmonic start")
    p.add_argument("--gamma0", type=float, default=None,
                   help="pin the norm budget instead of deriving it")
    p.add_argument("--max-iter", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", type=str, default=None,
                   help="write the solve summary as JSON")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    seed = None
    if args.seed_amplitude:
        seed = [HarmonicPolynomial({(2, 0): args.seed_amplitude,
                                    (0, 2): -args.seed_amplitude})]
    cfg = SolveConfig(R0=args.R0, res=args.res, seed=args.seed,
                      gamma0=args.gamma0, max_iter=args.max_iter,
                      harmonic_seed=seed)
    system = minimal_surface_system(2, q_bound=max(1.0, 2 * abs(args.slope)
                                                   + 4 * abs(args.seed_amplitude)))
    jet = JetSpec(np.zeros(1), np.array([[args.slope, 0.0]]))

    try:
        report = solve_system(system, jet, cfg)
    except SolveFailure as exc:
        print(f"solve failed: {exc}")
        return 1

    print(f"status     : {report.status}")
    print(f"final R    : {report.final_R:g}   gamma: {report.gamma:g}")
    print(f"iterations : {report.iterations}")
    print(f"residual   : {report.residual:.3e}  (sup source "
          f"{report.source_sup:.3e})")
    print(f"origin jet : value {report.jet_value:.2e}, "
          f"gradient {report.jet_gradient:.2e}")
    print("\nattempts:")
    print(f"  {'R':>8} {'gamma':>12} {'iters':>5} {'outcome':>16} "
          f"{'max |b|':>11}  first ratios")
    for a in report.attempts:
        ratios = ", ".join(f"{r:.2f}" for r in a.ratios[:5])
        dev = "--" if a.deviation_sup is None else f"{a.deviation_sup:.6f}"
        print(f"  {a.R:>8g} {a.gamma_start:>5g}->{a.gamma_end:<5g} "
              f"{a.iterations:>5} {a.outcome:>16} {dev:>11}"
              f"  [{ratios}]")

    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report.summary(), fh, indent=2, sort_keys=True)
        print(f"\nsummary -> {args.report}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
