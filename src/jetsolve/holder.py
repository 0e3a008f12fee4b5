"""Discrete weighted Hölder norms and the executable norm lemmas.

The scale-invariant weighted norm on B_R is

    ||f||_a = sup |f| + (2R)^a * H_a[f],

with H_a the Hölder seminorm; the order-l jet norm takes the max of ||.||_a
over all derivatives of order exactly l, and the solver's norm of an (N, m)
iterate over its components too.  Seminorms are evaluated on a PairSet, so
every reported value is reproducible from (grid, seed, cap).

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

from .grid import PairSet, ScalarField, fd_derivative, multi_indices

_EPS = 1e-12


@dataclass(frozen=True)
class HolderReport:
    sup_norm: float
    seminorm: float
    weighted: float


@dataclass(frozen=True)
class JetNormReport:
    """Weighted jet norms by derivative order (l = 0, 1, 2)."""

    orders: tuple[float, float, float]

    @property
    def solver_norm(self) -> float:
        """The order-2 norm: the metric the fixed-point iteration lives in."""
        return self.orders[2]


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
    c = (2.0 * pairs.grid.R) ** alpha
    block = values.reshape(values.shape[0], -1)
    sup = np.abs(block).max(axis=0)
    semi = _column_semis(block, sup, alpha, pairs)
    if values.ndim == 2:
        return sup, semi, sup + c * semi
    sup, semi = float(sup[0]), float(semi[0])
    return sup, semi, sup + c * semi


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
    subtraction is monotone; a division by the bucket's least dist_pow
    only grows the quotient.  So every pair's float quotient is at most
    its bucket's bound, with no slack.
    """
    buckets = pairs.buckets
    by_cube = values.take(buckets.node_order, axis=0)
    top = np.maximum.reduceat(by_cube, buckets.cube_start, axis=0)
    low = np.minimum.reduceat(by_cube, buckets.cube_start, axis=0)
    a, b = buckets.cube_a, buckets.cube_b
    span = np.maximum(top[a] - low[b], top[b] - low[a])
    span /= pairs.bucket_min_dist_pow(alpha)[:, None]
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
    dist_pow = pairs.dist_pow(alpha).take(at)
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
    """The max pair quotient (the seminorm) of each column of values (N, k).

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
            semi[full] = _column_max_quotients(values[:, full], pairs.first,
                                               pairs.second,
                                               pairs.dist_pow(alpha))
    return semi


def max_weighted_norm(values: np.ndarray, alpha: float,
                      pairs: PairSet) -> float:
    """The largest weighted norm over the columns of values (N, k).

    Bitwise the max over columns of :func:`weighted_norm_values`, NaN and
    inf propagating as in ``ndarray.max``, from a pruned pair scan with one
    floor shared by the columns.  Each column's norm is sup + c * (its
    largest pair quotient), with c = (2R)^alpha, which is monotone in the
    quotient; so each bucket of pairs is bounded by sup + c * (its
    quotient bound), and :func:`_pruned_max` scans only the buckets that
    can hold the max.
    """
    _check_alpha(alpha)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != pairs.grid.node_count:
        raise ValueError(f"values shape {values.shape} is not (node count "
                         f"{pairs.grid.node_count}, k)")
    c = (2.0 * pairs.grid.R) ** alpha
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
        semi = _column_max_quotients(values, pairs.first, pairs.second,
                                     pairs.dist_pow(alpha))
    return float((sup + c * semi).max())


def holder_norm(field: ScalarField, alpha: float, pairs: PairSet) -> HolderReport:
    """Weighted Hölder norm of a scalar field over the pair set."""
    if field.grid is not pairs.grid:
        raise ValueError("field and pairs live on different grids")
    return HolderReport(*weighted_norm_values(field.values, alpha, pairs))


def jet_norm(field: ScalarField, alpha: float,
             pairs: PairSet) -> JetNormReport:
    """Weighted jet norms of a scalar field for l = 0, 1, 2.

    Derivatives come from the analytic oracle when the field carries one
    and from finite differences otherwise.
    """
    if field.grid is not pairs.grid:
        raise ValueError("field and pairs live on different grids")
    orders = []
    for order in (0, 1, 2):
        columns = [fd_derivative(field, beta).values
                   for beta in multi_indices(field.grid.n, order)]
        orders.append(max_weighted_norm(np.stack(columns, axis=1), alpha,
                                        pairs))
    return JetNormReport(tuple(orders))


# ---------------------------------------------------------------------------
# the norm lemmas: each verdict is a predicate on measured numbers


def _within(x: float, y: float) -> bool:
    """x <= y up to a relative and an absolute slack of _EPS."""
    return x <= y * (1.0 + _EPS) + _EPS


def banach_algebra_holds(nf: float, ng: float, nfg: float) -> bool:
    """Verdict of ||fg|| <= ||f|| ||g|| on the three weighted norms."""
    return _within(nfg, nf * ng)


def taylor_remainder_ratio(field: ScalarField, alpha: float,
                           pairs: PairSet) -> float:
    """Worst ratio of remainder to bound over all pairs, both directions.

    The bound is (1/2) (sum over |beta| = 2 of H_a[d^beta f]) |y-x|^(2+a);
    a return value <= 1 means the remainder inequality held everywhere.
    Pairs where both sides vanish (quadratic fields) contribute 0.
    Requires the analytic derivative oracle so the check certifies the
    inequality and not the stencils.

    The pair offsets and |y-x|^(2+a) are cached on the pair set.  The
    reverse direction negates every offset, which IEEE arithmetic does
    exactly, so it subtracts the gradient terms and adds the same Hessian
    terms; every ratio is bitwise that of the direct expansion
    (``oracle.taylor_remainder_ratio_reference``).
    """
    if field.analytic_derivs is None:
        raise ValueError("taylor_remainder_ratio needs analytic_derivs")
    n = field.grid.n
    i, j = pairs.first, pairs.second
    steps = pairs.steps()
    squares = [c**2 for c in steps]

    f = field.values
    grads = [fd_derivative(field, beta).values for beta in multi_indices(n, 1)]
    hess_beta = multi_indices(n, 2)
    hess = {beta: fd_derivative(field, beta).values for beta in hess_beta}

    semis = weighted_norm_values(np.stack(list(hess.values()), axis=1),
                                 alpha, pairs)[1]
    semi_sum = 0.0
    for semi in semis.tolist():
        semi_sum += semi
    rhs = 0.5 * semi_sum * pairs.dist_pow(2.0 + alpha)

    scale = max(1.0, float(np.abs(f).max()))
    # Gathers write into two reused buffers.  Pair indices are in range, and
    # mode="clip" skips the scratch copy of `out` that take's default makes.
    taylor, term = np.empty(i.shape[0]), np.empty(i.shape[0])
    worst = 0.0
    for base, target, grad_op in ((j, i, np.add), (i, j, np.subtract)):
        np.take(f, base, out=taylor, mode="clip")
        for d in range(n):
            np.take(grads[d], base, out=term, mode="clip")
            term *= steps[d]
            grad_op(taylor, term, out=taylor)
        for beta in hess_beta:
            np.take(hess[beta], base, out=term, mode="clip")
            if max(beta) == 2:
                term *= 0.5
                term *= squares[beta.index(2)]
            else:
                d1, d2 = [k for k, v in enumerate(beta) if v == 1]
                term *= steps[d1]
                term *= steps[d2]
            taylor += term
        np.take(f, target, out=term, mode="clip")
        lhs = np.subtract(term, taylor, out=taylor)
        np.abs(lhs, out=lhs)
        live = lhs > _EPS * scale
        with np.errstate(divide="ignore", invalid="ignore"):
            lhs /= rhs
        lhs[~live] = 0.0
        worst = max(worst, float(lhs.max()))
    return worst


def taylor_remainder_holds(ratio: float) -> bool:
    """Verdict of the remainder bound on a :func:`taylor_remainder_ratio`."""
    return ratio <= 1.0 + 1e-9


def comparison_base(grid) -> float:
    """The constant 3 n R of the norm comparison lemma."""
    return 3.0 * grid.n * grid.R


def zero_jet_norm(field: ScalarField, alpha: float,
                  pairs: PairSet) -> JetNormReport:
    """:func:`jet_norm` of a field whose value and gradient vanish at 0.

    Raises ValueError unless the zero-jet condition holds, checked with the
    analytic derivatives at the origin node.
    """
    if field.analytic_derivs is None:
        raise ValueError("zero_jet_norm needs analytic_derivs")
    grid = field.grid
    origin = grid.nodes[grid.origin_index:grid.origin_index + 1]
    scale = max(1.0, float(np.abs(field.values).max()))
    v0 = float(field.analytic_derivs(tuple(0 for _ in range(grid.n)), origin)[0])
    if abs(v0) > 1e-10 * scale:
        raise ValueError(f"field value at origin is {v0}, not 0")
    for beta in multi_indices(grid.n, 1):
        g0 = float(field.analytic_derivs(beta, origin)[0])
        if abs(g0) > 1e-10 * scale:
            raise ValueError(f"field gradient at origin is nonzero: {g0}")
    return jet_norm(field, alpha, pairs)


def norm_comparison_holds(orders, base: float) -> bool:
    """Verdict of the comparison lemma on the jet norms, with base = 3 n R."""
    top = orders[2]
    return _within(orders[0], base**2 * top) and _within(orders[1], base * top)
