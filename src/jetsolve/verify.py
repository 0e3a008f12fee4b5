"""Executable-lemma suite: run every inequality check on a fixed battery.

Each entry returns a JSON-friendly block with pass/fail, the battery size,
and the measured constants (worst observed ratios), so a report records
not just that an inequality held but how much slack it had.  Each quantity
is measured once; the verdict and the reported ratio both come from it.
"""

from __future__ import annotations

import numpy as np

from .grid import build_grid, build_pair_set
from .holder import (banach_algebra_holds, comparison_base,
                     norm_comparison_holds, probe_jet,
                     taylor_remainder_holds, taylor_remainder_ratio,
                     taylor_work, weighted_norm_bounds, weighted_norm_values,
                     zero_jet_norm)
from .oracle import uniform_ball_potential
from .potential import (check_potential_norm_bound, laplacian_consistency,
                        potential_hessian)
from .probes import constant_probe, lemma_battery, with_zero_jet

# The closed-form and Laplacian blocks run on their own grid of this
# resolution, whatever the suite's res: their tolerances are set for it.
_POTENTIAL_RES = 17


def run_lemma_suite(n: int = 2, R: float = 1.0, res: int = 17,
                    alpha: float = 0.5, seed: int = 0) -> dict:
    """Run all lemma checks; returns {'lemmas': [...], 'all_passed': bool}.

    Each quantity is measured once, and a block's verdicts and reported
    worst ratios come from that one measurement (eps = 1e-12, B = 3 n R).
    Each probe's exact values of order 0, 1 and 2 are evaluated once, and
    its Hessian entries' weighted norms measured once (holder.probe_jet),
    for the first three blocks:

    * taylor_remainder: one remainder ratio per probe, whose bound sums the
      Hessian seminorms; passes if <= 1 + 1e-9.
    * banach_algebra: one norm per probe and per product of two probes
      that can matter; passes if ||fg|| <= ||f|| ||g|| (1 + eps) + eps.
      A product whose bucket bound on ||fg|| (holder.weighted_norm_bounds)
      passes that test and gives a ratio below the worst measured so far
      can be neither a violation nor the worst, and is not measured.
    * norm_comparison: one jet norm per zero-jet probe, its order 2 the
      largest Hessian norm; passes if order_l <= B^(2-l) order_2
      (1 + eps) + eps for l = 0, 1.  A probe whose 1-jet at the origin is
      not zero raises ValueError.
    * potential_closed_form and laplacian_consistency: one potential pass,
      with its Hessian, of the constant source on a res-17 grid.
    * potential_norm_bound: one stacked Hessian pass of up to six probes.
    """
    grid = build_grid(n, R, res)
    pairs = build_pair_set(grid, seed=seed)
    battery = lemma_battery(n)
    jets = [probe_jet(probe, alpha, pairs) for probe in battery]
    potential_grid = build_grid(n, R, _POTENTIAL_RES)
    constant = constant_probe(n).values(potential_grid)
    pot = potential_hessian(constant, potential_grid)
    blocks = [
        _taylor_block(battery, jets, pairs, alpha),
        _banach_block(battery, pairs, alpha,
                      np.stack([jet.values for jet in jets], axis=1)),
        _comparison_block(battery, jets, pairs, alpha),
        _closed_form_block(pot),
        _laplacian_block(pot, constant),
        _amplification_block(battery, pairs, alpha),
    ]
    return {
        "lemmas": blocks,
        "all_passed": all(b["passed"] for b in blocks),
        "battery_size": len(battery),
        "grid": {"n": n, "R": R, "res": res, "nodes": grid.node_count,
                 "pairs": int(pairs.drawn),
                 "distinct_pairs": int(pairs.size), "alpha": alpha},
    }


def _taylor_block(battery, jets, pairs, alpha) -> dict:
    ratios = {}
    violations = []
    # one set of steps and scan buffers for every probe
    work = taylor_work(pairs)
    for probe, jet in zip(battery, jets):
        ratio = taylor_remainder_ratio(probe, alpha, pairs, jet=jet,
                                       work=work)
        ratios[probe.name] = ratio
        if not taylor_remainder_holds(ratio):
            violations.append(probe.name)
    return {
        "name": "taylor_remainder",
        "statement": "second-order remainder bounded by the summed "
                     "Hoelder seminorms of the pure second derivatives",
        "passed": not violations,
        "battery_size": len(battery),
        "violations": violations,
        "worst_ratio": max(ratios.values()),
        "worst_probe": max(ratios, key=ratios.get),
    }


def _banach_block(battery, pairs, alpha, fields) -> dict:
    """The Banach-algebra block; fields are the battery's values (N, B)."""
    names = [p.name for p in battery]
    norms = weighted_norm_values(fields, alpha, pairs)[2].tolist()
    # a bucket bound on the norm of every product f_i f_j, i <= j, one row
    # block of products at a time
    cols, bounds = [], []
    for i in range(len(names)):
        products = fields[:, i:i + 1] * fields[:, i:]
        if not np.isfinite(products).all():
            raise ValueError("field values must be finite")
        cols.extend((i, j) for j in range(i, len(names)))
        bounds.extend(weighted_norm_bounds(products, alpha, pairs).tolist())
    # Products are measured from the largest bound on the ratio
    # ||fg|| / (||f|| ||g||) down.  One whose bound passes the verdict and
    # gives a ratio below the worst measured so far can be neither a
    # violation nor the worst, so it is not measured.
    denoms = [norms[i] * norms[j] for i, j in cols]
    with np.errstate(divide="ignore", invalid="ignore"):
        order = np.argsort(-(np.array(bounds) / denoms), kind="stable")
    measured = {}
    best = 0.0
    for k in order.tolist():
        (i, j), ub, denom = cols[k], bounds[k], denoms[k]
        if (denom > 0 and ub / denom < best
                and banach_algebra_holds(norms[i], norms[j], ub)):
            continue
        measured[k] = weighted_norm_values(fields[:, i] * fields[:, j],
                                           alpha, pairs)[2]
        if denom > 0:
            best = max(best, measured[k] / denom)
    worst = 0.0
    worst_pair = None
    violations = []
    # in (i, j) order, as a scan of every product gives them
    for k in sorted(measured):
        (i, j), nfg = cols[k], measured[k]
        if not banach_algebra_holds(norms[i], norms[j], nfg):
            violations.append([names[i], names[j]])
        denom = denoms[k]
        if denom > 0:
            ratio = nfg / denom
            if ratio > worst:
                worst, worst_pair = ratio, [names[i], names[j]]
    return {
        "name": "banach_algebra",
        "statement": "||fg|| <= ||f|| ||g|| for the weighted Hoelder norm",
        "passed": not violations,
        "battery_size": len(names),
        "violations": violations,
        "worst_ratio": worst,
        "worst_pair": worst_pair,
    }


def _comparison_block(battery, jets, pairs, alpha) -> dict:
    base = comparison_base(pairs.grid)
    worst0 = worst1 = 0.0
    violations = []
    for probe, jet in zip(battery, jets):
        orders = zero_jet_norm(with_zero_jet(probe, pairs.grid.n), alpha,
                               pairs, order2=float(jet.hess_norms[2].max()))
        if not norm_comparison_holds(orders, base):
            violations.append(probe.name)
        order0, order1, top = orders
        if top > 0:
            worst0 = max(worst0, order0 / (base**2 * top))
            worst1 = max(worst1, order1 / (base * top))
    return {
        "name": "norm_comparison",
        "statement": "zero-jet fields: order-0 and order-1 norms bounded "
                     "by (3nR)^2 and (3nR) times the order-2 norm",
        "passed": not violations,
        "battery_size": len(battery),
        "violations": violations,
        "worst_ratio_order0": worst0,
        "worst_ratio_order1": worst1,
    }


def _closed_form_block(pot, tol: float = 0.03) -> dict:
    grid = pot.grid
    exact = uniform_ball_potential(grid.n, grid.R, grid.nodes)
    err = float(np.abs(pot.values - exact).max() / np.abs(exact).max())
    return {
        "name": "potential_closed_form",
        "statement": "Newtonian potential of the constant source matches "
                     "the uniform-ball closed form",
        "passed": err <= tol,
        "relative_sup_error": err,
        "tolerance": tol,
        "res": grid.res,
    }


def _laplacian_block(pot, source, tol: float = 0.05) -> dict:
    rep = laplacian_consistency(pot, source)
    return {
        "name": "laplacian_consistency",
        "statement": "Hessian-trace and finite-difference routes to the "
                     "potential's Laplacian agree with the negated source",
        "passed": rep["max_relative_gap"] <= tol,
        "max_relative_gap": rep["max_relative_gap"],
        "trace_route_gap": rep["trace_gap"],
        "fd_route_gap": rep["fd_gap"],
        "tolerance": tol,
        "res": pot.grid.res,
    }


def _amplification_block(battery, pairs, alpha, cap: float = 10.0) -> dict:
    ratios = check_potential_norm_bound(battery[:6], alpha, pairs)
    max_ratio = max(ratios.values())
    return {
        "name": "potential_norm_bound",
        "statement": "second-order norm of the potential bounded by a "
                     "moderate multiple of the source norm",
        "passed": bool(max_ratio < cap),
        "max_ratio": max_ratio,
        "cap": cap,
        "n_probes": len(ratios),
    }
