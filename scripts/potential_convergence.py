#!/usr/bin/env python3
"""Convergence study for the ball-interior Newtonian potential quadrature.

Compares the discrete potential of the constant density f = 1 against the
closed-form solution on centered balls in two and three dimensions, sweeping
the grid resolution. The error is reported in the sup norm relative to the
sup of the exact solution.

Usage:
    python3 scripts/potential_convergence.py
    python3 scripts/potential_convergence.py --resolutions 9 13 17 25 33 --R 2
"""

import argparse
import sys

import numpy as np

from jetsolve import build_grid, newtonian_potential, uniform_ball_potential


def sweep(n: int, R: float, resolutions: list[int]) -> list[tuple[int, float]]:
    rows = []
    for res in resolutions:
        grid = build_grid(n, R, res)
        approx = newtonian_potential(np.ones(grid.node_count), grid).values
        exact = uniform_ball_potential(n, R, grid.nodes)
        err = np.max(np.abs(approx - exact)) / np.max(np.abs(exact))
        rows.append((res, float(err)))
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--resolutions", type=int, nargs="+",
                   default=[9, 13, 17, 25])
    p.add_argument("--R", type=float, default=1.0, help="ball radius")
    args = p.parse_args(argv)

    for n in (2, 3):
        print(f"\nn = {n}, R = {args.R:g}, density f = 1")
        print(f"  {'res':>5} {'rel sup error':>14} {'obs. order':>11}")
        rows = sweep(n, args.R, args.resolutions)
        prev = None
        for res, err in rows:
            if prev is None:
                order = ""
            else:
                pres, perr = prev
                h_ratio = (pres - 1) / (res - 1)  # h ~ 1/(res-1)
                order = f"{np.log(perr / err) / np.log(1 / h_ratio):>10.2f}"
            print(f"  {res:>5} {err:>14.4e} {order:>11}")
            prev = (res, err)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
