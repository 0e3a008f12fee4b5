"""Executable-lemma suite: run every inequality check on a fixed battery.

Each entry returns a JSON-friendly block with pass/fail, the battery size,
and the measured constants (worst observed ratios), so a report records
not just that an inequality held but how much slack it had.  Within a
block each quantity is measured once; the verdict and the reported ratio
both come from it.
"""

from __future__ import annotations

import numpy as np

from .grid import build_grid, build_pair_set, multi_indices
from .holder import (_within, banach_algebra_holds, comparison_base,
                     max_weighted_norm, norm_comparison_holds, probe_jet,
                     taylor_remainder_holds, taylor_remainder_ratio,
                     taylor_work, weighted_norm_bounds, weighted_norm_values)
from .potential import (_norm_ratios, laplacian_consistency,
                        potential_hessian, uniform_ball_potential)
from .probes import constant_probe, lemma_battery

# The closed-form and Laplacian blocks run on their own grid of this
# resolution, whatever the suite's res: their tolerances are set for it.
_POTENTIAL_RES = 17


def run_lemma_suite(n: int = 2, R: float = 1.0, res: int = 17,
                    alpha: float = 0.5, seed: int = 0) -> dict:
    """Run all lemma checks; returns {'lemmas': [...], 'all_passed': bool}.

    Within a block each quantity is measured at most once, and the block's
    verdicts and reported worst ratios come from that one measurement
    (eps = 1e-12, B = 3 n R).
    Each probe's exact values of order 0, 1 and 2 are evaluated once, and
    its Hessian entries' weighted norms measured once (holder.probe_jet),
    for the first three blocks:

    * taylor_remainder: one remainder ratio per probe, whose bound sums the
      Hessian seminorms, scanned in cache-sized blocks of pairs; passes if
      <= 1 + 1e-9.
    * banach_algebra: one norm per probe and per product of two probes
      that can matter; passes if ||fg|| <= ||f|| ||g|| (1 + eps) + eps.
      A product whose bucket bound on ||fg|| (holder.weighted_norm_bounds)
      passes that test and gives a ratio below the worst measured so far
      can be neither a violation nor the worst, and is not measured.
    * norm_comparison: the order-0 and order-1 jet norms of each probe less
      its 1-jet at the origin, whose columns are the jet's values and
      gradients less that 1-jet, and whose order 2 is the largest Hessian
      norm; passes if order_l <= B^(2-l) order_2 (1 + eps) + eps for
      l = 0, 1.  As in banach_algebra, and through the same loop
      (_bounded_norms), a norm whose bucket bound passes its test and
      gives a ratio below the worst of its order measured so far is not
      measured.  A zero-jet field whose value or gradient at the origin
      node is not zero raises ValueError.
    * potential_closed_form and laplacian_consistency: one potential pass,
      with its Hessian, of the constant source on a res-17 grid.
    * potential_norm_bound: one stacked Hessian pass of up to six probes,
      the ratios of potential.check_potential_norm_bound, whose sources'
      values and weighted norms are those of the banach_algebra block.

    As "measured", banach_algebra reports how many products it measured
    and norm_comparison how many zero-jet norms.
    """
    grid = build_grid(n, R, res)
    pairs = build_pair_set(grid, seed=seed)
    battery = lemma_battery(n)
    jets = [probe_jet(probe, alpha, pairs) for probe in battery]
    # the battery's values and weighted norms, for banach_algebra and
    # potential_norm_bound
    fields = np.stack([jet.values for jet in jets], axis=1)
    norms = weighted_norm_values(fields, alpha, pairs)[2]
    potential_grid = build_grid(n, R, _POTENTIAL_RES)
    constant = constant_probe(n).values(potential_grid)
    pot = potential_hessian(constant, potential_grid)
    blocks = [
        _taylor_block(battery, jets, pairs, alpha),
        _banach_block(battery, pairs, alpha, fields, norms),
        _comparison_block(battery, jets, pairs, alpha),
        _closed_form_block(pot),
        _laplacian_block(pot, constant),
        _amplification_block(battery, pairs, alpha, fields, norms),
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


def _banach_block(battery, pairs, alpha, fields, norms) -> dict:
    """The Banach-algebra block; fields are the battery's values (N, B),
    and norms their weighted norms (B,)."""
    names = [p.name for p in battery]
    norms = norms.tolist()
    # a bucket bound on the norm of every product f_i f_j, i <= j, one row
    # block of products at a time
    cols, bounds = [], []
    for i in range(len(names)):
        products = fields[:, i:i + 1] * fields[:, i:]
        if not np.isfinite(products).all():
            raise ValueError("field values must be finite")
        cols.extend((i, j) for j in range(i, len(names)))
        bounds.extend(weighted_norm_bounds(products, alpha, pairs).tolist())
    denoms = [norms[i] * norms[j] for i, j in cols]
    values, measured = _bounded_norms(
        bounds, denoms,
        lambda k, ub: banach_algebra_holds(norms[cols[k][0]],
                                           norms[cols[k][1]], ub),
        lambda k: weighted_norm_values(
            fields[:, cols[k][0]] * fields[:, cols[k][1]], alpha, pairs)[2])
    worst, worst_pair, violations = 0.0, None, []
    # a product keeps its bound only where that passes the verdict with a
    # ratio below the worst, so this loop gives what the norms would give
    for (i, j), nfg, denom in zip(cols, values, denoms):
        if not banach_algebra_holds(norms[i], norms[j], nfg):
            violations.append([names[i], names[j]])
        if denom > 0 and nfg / denom > worst:
            worst, worst_pair = nfg / denom, [names[i], names[j]]
    return {
        "name": "banach_algebra",
        "statement": "||fg|| <= ||f|| ||g|| for the weighted Hoelder norm",
        "passed": not violations,
        "battery_size": len(names),
        "violations": violations,
        "worst_ratio": worst,
        "worst_pair": worst_pair,
        "measured": measured,
    }


def _comparison_block(battery, jets, pairs, alpha) -> dict:
    grid = pairs.grid
    base = comparison_base(grid)
    columns = []
    for probe, jet in zip(battery, jets):
        order0, order1 = _zero_jet_columns(probe, jet, grid)
        _require_zero_jet(order0, order1, grid)
        columns.append((order0, order1))
    tops = [float(jet.hess_norms[2].max()) for jet in jets]
    norms, worst, measured = [], [], 0
    for order, scale in ((0, base**2), (1, base)):
        fields = [cols[order] for cols in columns]
        bounds = weighted_norm_bounds(np.concatenate(fields, axis=1), alpha,
                                      pairs)
        denoms = [scale * top for top in tops]
        found, count = _bounded_norms(
            bounds.reshape(len(fields), -1).max(axis=1).tolist(), denoms,
            lambda p, ub: _within(ub, denoms[p]),
            lambda p: max_weighted_norm(fields[p], alpha, pairs))
        norms.append(found)
        measured += count
        # guard each ratio on its own denominator, which underflows at tiny R
        worst.append(0.0)
        for value, denom in zip(found, denoms):
            if denom > 0:
                worst[-1] = max(worst[-1], value / denom)
    violations = []
    # a bound stands in for a norm only where it passes the verdict with a
    # ratio below the worst: verdicts and worst ratios are the norms' own
    for probe, order0, order1, top in zip(battery, *norms, tops):
        if not norm_comparison_holds((order0, order1, top), base):
            violations.append(probe.name)
    return {
        "name": "norm_comparison",
        "statement": "zero-jet fields: order-0 and order-1 norms bounded "
                     "by (3nR)^2 and (3nR) times the order-2 norm",
        "passed": not violations,
        "battery_size": len(battery),
        "violations": violations,
        "worst_ratio_order0": worst[0],
        "worst_ratio_order1": worst[1],
        "measured": measured,
    }


def _bounded_norms(bounds, denoms, holds, measure) -> tuple[list, int]:
    """Each entry's norm, or its bound where that can stand in; and how
    many were measured.

    The entries are measured from the largest bound on the ratio
    norm / denoms[p] down.  An entry whose bound passes holds(p, bound) and
    gives a ratio below the worst measured so far can be neither a
    violation nor the worst, and keeps its bound; every other entry takes
    measure(p).  A ratio counts only where denoms[p] > 0.
    """
    values = list(bounds)
    with np.errstate(divide="ignore", invalid="ignore"):
        order = np.argsort(-(np.array(values) / denoms), kind="stable")
    best, count = 0.0, 0
    for p in order.tolist():
        ub, denom = values[p], denoms[p]
        if denom > 0 and ub / denom < best and holds(p, ub):
            continue
        values[p] = measure(p)
        count += 1
        if denom > 0:
            best = max(best, values[p] / denom)
    return values, count


def _zero_jet_columns(probe, jet, grid) -> tuple[np.ndarray, np.ndarray]:
    """The probe less its 1-jet at the origin, from its jet: the order-0
    column (N, 1) and the order-1 columns (N, n), float-equal to those of
    ``probes.with_zero_jet(probe, n)``, which subtracts the same values."""
    origin = np.zeros((1, grid.n))
    betas = multi_indices(grid.n, 1)
    f0 = float(probe.fn(origin)[0])
    g0 = np.array([float(probe.deriv(beta, origin)[0]) for beta in betas])
    return ((jet.values - f0 - grid.nodes @ g0)[:, None],
            np.stack(jet.grads, axis=1) - g0)


def _require_zero_jet(order0, order1, grid) -> None:
    """Raise ValueError unless the field's value and gradient vanish at the
    origin node, relative to max(1, sup |field|)."""
    scale = max(1.0, float(np.abs(order0).max()))
    v0 = float(order0[grid.origin_index, 0])
    if abs(v0) > 1e-10 * scale:
        raise ValueError(f"field value at origin is {v0}, not 0")
    for g0 in order1[grid.origin_index].tolist():
        if abs(g0) > 1e-10 * scale:
            raise ValueError(f"field gradient at origin is nonzero: {g0}")


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


def _amplification_block(battery, pairs, alpha, fields, norms,
                         cap: float = 10.0) -> dict:
    ratios = _norm_ratios([p.name for p in battery[:6]], fields[:, :6],
                          norms[:6], alpha, pairs)
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
