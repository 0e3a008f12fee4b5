"""Discrete weighted Hölder norms and the executable norm lemmas.

The scale-invariant weighted norm on B_R is

    ||f||_a = sup |f| + (2R)^a * H_a[f],

with H_a the Hölder seminorm; the order-l jet norm takes the max of ||.||_a
over all derivatives of order exactly l, and the solver's norm of an (N, m)
iterate over its components too.  Seminorms are evaluated on a PairSet, so
every reported value is reproducible from (grid, seed).
The quotients divide by the distances at R = 1 (|x - y| / R is R-free),
so (2R)^a H_a[f] is 2^a times their max, and H_a[f] that max over R^a.

Every seminorm comes from a pruned scan of the pair set: pairs are stored
in buckets by the lattice cubes of their nodes, each bucket is bounded from
the cube maxima and minima, and only the buckets that can hold the max are
scanned.  :func:`weighted_norm_values` prunes each field (column) on its
own; :func:`max_weighted_norm`, the max over several fields (the jet norms,
the solver norm, the potential's probe numerators), prunes them with one
shared floor.  Either value is bitwise that of the full scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import PairSet, multi_indices
from .probes import Probe

_EPS = 1e-12


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def _max_quotient(values: np.ndarray, first: np.ndarray, second: np.ndarray,
                  dist_pow: np.ndarray) -> float:
    """max |v(first) - v(second)| / dist_pow over the given pairs."""
    # One pair-length buffer: pair indices are in range, and mode="clip"
    # skips the scratch copy that take's default mode makes.
    quotient = values.take(first, mode="clip")
    quotient -= values.take(second, mode="clip")
    np.abs(quotient, out=quotient)
    quotient /= dist_pow
    return quotient.max()


def _column_max_quotients(values: np.ndarray, first: np.ndarray,
                          second: np.ndarray,
                          dist_pow: np.ndarray) -> np.ndarray:
    """:func:`_max_quotient` of each column of values (N, k), scanned one
    contiguous column at a time: a gather of (N, k) rows costs about three
    times more per pair and column."""
    return np.array([_max_quotient(column, first, second, dist_pow)
                     for column in np.ascontiguousarray(values.T)])


def weighted_norm_values(values: np.ndarray, alpha: float,
                         pairs: PairSet) -> tuple:
    """(sup, seminorm, weighted) of raw node values.

    values has shape (N,), giving three floats, or (N, k), giving three
    (k,) arrays, one entry per column.  Each column's seminorm is the max
    quotient of a pruned pair scan (:func:`_column_semis`), bitwise that
    of the full scan, NaN and inf propagating as in ``ndarray.max``.
    """
    _check_alpha(alpha)
    values = np.asarray(values, dtype=np.float64)
    if values.shape[:1] != (pairs.grid.node_count,) or values.ndim > 2:
        raise ValueError(f"values shape {values.shape} does not match node "
                         f"count {pairs.grid.node_count}")
    block = values.reshape(values.shape[0], -1)
    sup = np.abs(block).max(axis=0)
    semi = _column_semis(block, sup, alpha, pairs)
    norms = sup, semi / pairs.grid.R**alpha, sup + 2.0**alpha * semi
    if values.ndim == 2:
        return norms
    return tuple(float(x[0]) for x in norms)


# A pruned scan takes its floor from the buckets of largest bound, enough of
# them to hold this many pairs.
_FLOOR_PAIRS = 4096
# Per pair, a scan of chosen buckets costs 5-8 ns to build the index and
# gather the pair, plus 4-5 ns per column; the stored-order scan costs
# 4-5 ns a pair and column (measured on the 200k-pair sets of 2D res 33
# and 3D res 21, one core of a 2-core x86 VM).  With the gather at about
# 1.5 column scans, a bucket scan of k columns pays while the surviving
# buckets hold at most k / (k + _GATHER) of the set: 40% for one column,
# 67% for three, 89% for twelve.
_GATHER = 1.5


def _quotient_bounds(values: np.ndarray, alpha: float,
                     pairs: PairSet) -> np.ndarray:
    """(buckets, k) bounds on |v(x) - v(y)| / |x - y|^alpha over each bucket.

    With x in cube A and y in cube B, fl(v(x) - v(y)) lies between
    -fl(max_B v - min_A v) and fl(max_A v - min_B v), since rounded
    subtraction is monotone; a division by the bucket's least dist_pow (at
    R = 1) only grows the quotient.  So every pair's float quotient is at most
    its bucket's bound, with no slack.
    """
    buckets = pairs.buckets
    by_cube = values.take(buckets.node_order, axis=0)
    top = np.maximum.reduceat(by_cube, buckets.cube_start, axis=0)
    low = np.minimum.reduceat(by_cube, buckets.cube_start, axis=0)
    a, b = buckets.cube_a, buckets.cube_b
    span = np.maximum(top[a] - low[b], top[b] - low[a])
    span /= pairs.unit.bucket_min_dist_pow(alpha)[:, None]
    return span


def _bucket_scan(values: np.ndarray, alpha: float, pairs: PairSet,
                 chosen: np.ndarray) -> np.ndarray:
    """Per-column max of the quotient over the pairs of the chosen buckets,
    each a contiguous range of the stored pairs."""
    indptr = pairs.buckets.indptr
    start = indptr[chosen]
    size = indptr[chosen + 1] - start
    # the stored positions of every chosen pair, bucket after bucket
    at = np.repeat(start - (np.cumsum(size) - size), size)
    at += np.arange(at.shape[0])
    first, second = pairs.first.take(at), pairs.second.take(at)
    dist_pow = pairs.unit.dist_pow(alpha).take(at)
    del at
    return _column_max_quotients(values, first, second, dist_pow)


def _pruned_max(bound: np.ndarray, scan, pairs: PairSet, k: int):
    """The max of scan(chosen buckets) over every bucket, or None when
    pruning would not pay for k columns.

    bound bounds, per bucket, every value scan can give for its pairs.
    The buckets of largest bound, enough of them to hold _FLOOR_PAIRS
    pairs, are scanned first for an exact floor, then only the buckets
    whose bound is not <= that floor.  A skipped bucket cannot beat the
    floor, so the result is the float of a scan of every bucket.
    """
    size = np.diff(pairs.buckets.indptr)
    rank = np.argsort(bound)[::-1]
    top = rank[:np.searchsorted(np.cumsum(size[rank]), _FLOOR_PAIRS) + 1]
    best = scan(top)
    live = ~(bound <= best)
    live[top] = False
    rest = np.flatnonzero(live)
    if size[rest].sum() * (k + _GATHER) > pairs.size * k:
        return None
    return max(best, scan(rest)) if rest.size else best


def _column_semis(values: np.ndarray, sup: np.ndarray, alpha: float,
                  pairs: PairSet) -> np.ndarray:
    """The max pair quotient of each column of values (N, k), at R = 1.

    Each finite column of a set over 2 * _FLOOR_PAIRS pairs is pruned on
    its own (:func:`_pruned_max` with its own quotient bounds and floor).
    Non-finite columns (inf - inf makes NaN quotients that no bound sees),
    small sets and columns whose surviving buckets hold too much of the
    set for pruning to pay take the full scan.
    """
    semi = np.empty(values.shape[1])
    full = np.ones(values.shape[1], dtype=bool)
    if pairs.size > 2 * _FLOOR_PAIRS:
        cols = np.flatnonzero(np.isfinite(sup))
        bounds = _quotient_bounds(values[:, cols], alpha, pairs)
        for col, bound in zip(cols, bounds.T):
            column = values[:, col:col + 1]
            best = _pruned_max(bound, lambda chosen: _bucket_scan(
                column, alpha, pairs, chosen)[0], pairs, 1)
            if best is not None:
                semi[col], full[col] = best, False
    if full.any():
        with np.errstate(invalid="ignore"):
            semi[full] = _column_max_quotients(values[:, full],
                                               *pairs.take_ids(),
                                               pairs.unit.dist_pow(alpha))
    return semi


def weighted_norm_bounds(values: np.ndarray, alpha: float,
                         pairs: PairSet) -> np.ndarray:
    """An upper bound on the weighted norm of each column of finite values
    (N, k), from the cube maxima and minima alone: sup + 2^alpha * the
    largest bucket bound of :func:`_quotient_bounds`.  Rounding is
    monotone, so each bound is >= the column's weighted norm from
    :func:`weighted_norm_values`, with no slack."""
    sup = np.abs(values).max(axis=0)
    return sup + 2.0**alpha * _quotient_bounds(values, alpha,
                                                pairs).max(axis=0)


def max_weighted_norm(values: np.ndarray, alpha: float,
                      pairs: PairSet) -> float:
    """The largest weighted norm over the columns of values (N, k).

    Bitwise the max over columns of :func:`weighted_norm_values`, NaN and
    inf propagating as in ``ndarray.max``, from a pruned pair scan with one
    floor shared by the columns.  Each column's norm is sup + c * (its
    largest pair quotient at R = 1), with c = 2^alpha, which is monotone
    in the quotient; so each bucket of pairs is bounded by sup + c * (its
    quotient bound), and :func:`_pruned_max` scans only the buckets that
    can hold the max.
    """
    _check_alpha(alpha)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != pairs.grid.node_count:
        raise ValueError(f"values shape {values.shape} is not (node count "
                         f"{pairs.grid.node_count}, k)")
    c = 2.0**alpha
    sup = np.abs(values).max(axis=0)
    # Small sets, and non-finite values (inf - inf makes NaN quotients
    # that no bound sees), take the full scan.
    if pairs.size > 2 * _FLOOR_PAIRS and np.isfinite(sup).all():
        bound = (sup + c * _quotient_bounds(values, alpha, pairs)).max(axis=1)
        best = _pruned_max(bound, lambda chosen: (sup + c * _bucket_scan(
            values, alpha, pairs, chosen)).max(), pairs, values.shape[1])
        if best is not None:
            return float(best)
    with np.errstate(invalid="ignore"):
        semi = _column_max_quotients(values, *pairs.take_ids(),
                                     pairs.unit.dist_pow(alpha))
    return float((sup + c * semi).max())


def _order_norm(probe: Probe, alpha: float, pairs: PairSet,
                order: int) -> float:
    """The order-l weighted jet norm of a probe on the pair set's grid: the
    largest weighted norm over its exact derivatives of order l."""
    grid = pairs.grid
    columns = [probe.values(grid, beta)
               for beta in multi_indices(grid.n, order)]
    return max_weighted_norm(np.stack(columns, axis=1), alpha, pairs)


@dataclass(frozen=True)
class ProbeJet:
    """A probe's exact node values on a pair set's grid, and the weighted
    norms of its Hessian entries on that set.

    values is (N,); grads holds one (N,) array per multi-index of
    multi_indices(n, 1), and hess one (N,) row per multi-index of
    multi_indices(n, 2); hess_norms is weighted_norm_values(hess.T, alpha,
    pairs), (sup, semi, weighted) with one entry per row each.  The
    largest weighted entry is the probe's order-2 jet norm, bitwise
    (:func:`max_weighted_norm`).
    """

    values: np.ndarray
    grads: tuple[np.ndarray, ...]
    hess: np.ndarray
    hess_norms: tuple[np.ndarray, np.ndarray, np.ndarray]


def probe_jet(probe: Probe, alpha: float, pairs: PairSet) -> ProbeJet:
    """The probe's exact values of order 0, 1 and 2 on the pair set's
    grid, each evaluated once, and its Hessian entries' weighted norms."""
    grid = pairs.grid
    hess = np.stack([probe.values(grid, beta)
                     for beta in multi_indices(grid.n, 2)])
    return ProbeJet(probe.values(grid),
                    tuple(probe.values(grid, beta)
                          for beta in multi_indices(grid.n, 1)),
                    hess, weighted_norm_values(hess.T, alpha, pairs))


# ---------------------------------------------------------------------------
# the norm lemmas: each verdict is a predicate on measured numbers


def _within(x: float, y: float) -> bool:
    """x <= y up to a relative and an absolute slack of _EPS."""
    return x <= y * (1.0 + _EPS) + _EPS


def banach_algebra_holds(nf: float, ng: float, nfg: float) -> bool:
    """Verdict of ||fg|| <= ||f|| ||g|| on the three weighted norms."""
    return _within(nfg, nf * ng)


def taylor_work(pairs: PairSet) -> np.ndarray:
    """The buffer :func:`taylor_remainder_ratio` scans in, float64 (4 + 2 n,
    pairs.size): four scratch rows, then the pair steps x_first - x_second,
    one row per axis, and their squares, computed here once."""
    n = pairs.grid.n
    work = np.empty((4 + 2 * n, pairs.size))
    steps = pairs.steps(out=work[4:4 + n])
    np.square(steps, out=work[4 + n:])
    return work


def taylor_remainder_ratio(probe: Probe, alpha: float, pairs: PairSet,
                           jet: ProbeJet | None = None,
                           work: np.ndarray | None = None) -> float:
    """Worst ratio of remainder to bound over all pairs, both directions.

    The bound is (1/2) (sum over |beta| = 2 of H_a[d^beta f]) |y-x|^(2+a);
    a return value <= 1 means the remainder inequality held everywhere.
    Pairs where both sides vanish (quadratic fields) contribute 0.  The
    derivatives are the probe's exact ones, so the check certifies the
    inequality and not the stencils.  jet, if given, is
    ``probe_jet(probe, alpha, pairs)``, already measured; work, if given,
    is ``taylor_work(pairs)``, so that a caller scanning many probes
    computes the steps and allocates (and page-faults) its pair-length
    buffers once.

    |y-x|^(2+a) is R^(2+a) times the unit pairs' dist_pow.  The reverse
    direction negates every offset, which IEEE arithmetic does exactly, so
    it subtracts the gradient terms and adds the same Hessian terms, bitwise
    the direct expansion.  ``oracle.taylor_remainder_ratio_reference``
    reads the nodes' own offsets, and agrees to rounding.
    """
    if jet is None:
        jet = probe_jet(probe, alpha, pairs)
    if work is None:
        work = taylor_work(pairs)
    i, j = pairs.take_ids()
    n = pairs.grid.n
    rhs, f_second, f_first, acc = work[:4]
    expand = (jet.grads, tuple(zip(multi_indices(n, 2), jet.hess)),
              work[4:4 + n], work[4 + n:])

    semi_sum = 0.0
    for semi in jet.hess_norms[1].tolist():
        semi_sum += semi
    np.multiply(0.5 * semi_sum * pairs.grid.R**(2.0 + alpha),
                pairs.unit.dist_pow(2.0 + alpha), out=rhs)

    f = jet.values
    floor = _EPS * max(1.0, float(np.abs(f).max()))
    # Each end's f is gathered once: the forward target, f(first), is the
    # reverse base, and the forward base, f(second), the reverse target.
    # Pair indices are in range, and mode="clip" skips the scratch copy of
    # `out` that take's default makes.
    np.take(f, j, out=f_second, mode="clip")
    _expand(f_second, j, acc, f_first, np.add, *expand)
    np.take(f, i, out=f_first, mode="clip")
    forward = _live_max(np.subtract(f_first, acc, out=acc), rhs, floor)
    _expand(f_first, i, f_first, acc, np.subtract, *expand)
    reverse = _live_max(np.subtract(f_second, f_first, out=f_first), rhs,
                        floor)
    return max(0.0, forward, reverse)


def _expand(start, base, acc, term, grad_op, grads, hess, steps, squares):
    """acc = start (f at the base nodes) grad_op each gradient term, then
    + each Hessian term, in that order; term is the scratch buffer, and
    acc may be start."""
    for d, grad in enumerate(grads):
        np.take(grad, base, out=term, mode="clip")
        term *= steps[d]
        grad_op(start if d == 0 else acc, term, out=acc)
    for beta, row in hess:
        np.take(row, base, out=term, mode="clip")
        if max(beta) == 2:
            term *= 0.5
            term *= squares[beta.index(2)]
        else:
            d1, d2 = [k for k, v in enumerate(beta) if v == 1]
            term *= steps[d1]
            term *= steps[d2]
        acc += term


def _live_max(lhs, rhs, floor) -> float:
    """max |lhs| / rhs over the pairs whose |lhs| > floor, 0 over the
    others; works in place on lhs."""
    np.abs(lhs, out=lhs)
    live = lhs > floor
    with np.errstate(divide="ignore", invalid="ignore"):
        lhs /= rhs
    lhs[~live] = 0.0
    return float(lhs.max())


def taylor_remainder_holds(ratio: float) -> bool:
    """Verdict of the remainder bound on a :func:`taylor_remainder_ratio`."""
    return ratio <= 1.0 + 1e-9


def comparison_base(grid) -> float:
    """The constant 3 n R of the norm comparison lemma."""
    return 3.0 * grid.n * grid.R


def zero_jet_norm(probe: Probe, alpha: float, pairs: PairSet,
                  order2: float) -> tuple[float, float, float]:
    """The weighted jet norms (order 0, 1, 2) of a probe whose value and
    gradient vanish at 0.

    Raises ValueError unless the zero-jet condition holds, checked with the
    exact derivatives at the origin node.  order2 is the order-2 norm,
    already measured: subtracting a 1-jet leaves the Hessian as it is, so
    it is the largest weighted entry of the unshifted probe's
    :attr:`ProbeJet.hess_norms`.
    """
    grid = pairs.grid
    origin = grid.nodes[grid.origin_index:grid.origin_index + 1]
    scale = max(1.0, float(np.abs(probe.values(grid)).max()))
    v0 = float(probe.deriv(tuple(0 for _ in range(grid.n)), origin)[0])
    if abs(v0) > 1e-10 * scale:
        raise ValueError(f"field value at origin is {v0}, not 0")
    for beta in multi_indices(grid.n, 1):
        g0 = float(probe.deriv(beta, origin)[0])
        if abs(g0) > 1e-10 * scale:
            raise ValueError(f"field gradient at origin is nonzero: {g0}")
    return (_order_norm(probe, alpha, pairs, 0),
            _order_norm(probe, alpha, pairs, 1), order2)


def norm_comparison_holds(orders, base: float) -> bool:
    """Verdict of the comparison lemma on the jet norms, with base = 3 n R."""
    top = orders[2]
    return _within(orders[0], base**2 * top) and _within(orders[1], base * top)
