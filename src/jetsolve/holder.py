"""Discrete weighted Hölder norms and the executable norm lemmas.

The scale-invariant weighted norm on B_R is

    ||f||_a = sup |f| + (2R)^a * H_a[f],

with H_a the Hölder seminorm; the order-l jet norm takes the max of ||.||_a
over all derivatives of order exactly l, and the solver's norm of an (N, m)
iterate over its components too.  Seminorms are evaluated on a PairSet, so
every reported value is reproducible from (grid, seed).
The quotients divide by the distances at R = 1 (|x - y| / R is R-free),
so (2R)^a H_a[f] is 2^a times their max, and H_a[f] that max over R^a.

Every seminorm comes from one pruned max, :func:`_max_norm`: pairs are
stored in buckets by the lattice cubes of their nodes, each bucket is
bounded from the cube maxima and minima, a floor is scanned from the
buckets of largest bound, and then only the buckets that can beat it.
It serves two floors.  :func:`weighted_norm_values` calls it once per
field (column), with that column's own bounds and floor;
:func:`max_weighted_norm`, the max over several fields (the jet norms,
the solver norm, the potential's probe numerators), calls it once, with
the bounds on sup + 2^a * quotient and one floor shared by the columns.
Either value is bitwise that of the full scan, which :func:`_max_norm`
falls back to where pruning cannot see or does not pay.

The fields arrive as the columns of an (N, k) array and are read as k
contiguous rows (k, N), copied once by :func:`_rows`, the one input
path, unless they already are the transpose of such rows; the bounds
and the one pair scan, :func:`_scan`, read those rows.  The bounds run
along the long axes: the cube maxima and minima are (k, cubes) rows,
and the bounds (k, buckets) rows, one per field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import PairSet, multi_indices
from .probes import Probe

_EPS = 1e-12


def weighted_norm_values(values: np.ndarray, alpha: float,
                         pairs: PairSet) -> tuple:
    """(sup, seminorm, weighted) of raw node values.

    values has shape (N,), giving three floats, or (N, k), giving three
    (k,) arrays, one entry per column.  Each column's seminorm is the max
    quotient of its own pruned pair scan (:func:`_max_norm`), bitwise that
    of the full scan, NaN and inf propagating as in ``ndarray.max``.
    """
    rows, sup = _rows(values, alpha, pairs, (1, 2))
    cols = np.flatnonzero(_prunable(sup, pairs))
    bounds = dict(zip(cols.tolist(), _quotient_bounds(rows[cols], alpha, pairs)
                      if cols.size else ()))
    # 0.0 + 1.0 * q is q for every float q: each max is the column's quotient
    semi = np.array([_max_norm(rows[c:c + 1], 0.0, 1.0, alpha, pairs,
                               bounds.get(c)) for c in range(rows.shape[0])])
    norms = sup, semi / pairs.grid.R**alpha, sup + 2.0**alpha * semi
    if np.ndim(values) == 2:
        return norms
    return tuple(float(x[0]) for x in norms)


def weighted_norm_bounds(values: np.ndarray, alpha: float,
                         pairs: PairSet) -> np.ndarray:
    """An upper bound on the weighted norm of each column of finite values
    (N, k), from the cube maxima and minima alone: sup + 2^alpha * the
    largest bucket bound of :func:`_quotient_bounds`.  Rounding is
    monotone, so each bound is >= the column's weighted norm from
    :func:`weighted_norm_values`, with no slack."""
    rows, sup = _rows(values, alpha, pairs, (2,))
    return sup + 2.0**alpha * _quotient_bounds(rows, alpha, pairs).max(axis=1)


def max_weighted_norm(values: np.ndarray, alpha: float,
                      pairs: PairSet) -> float:
    """The largest weighted norm over the columns of values (N, k).

    Bitwise the max over columns of :func:`weighted_norm_values`, NaN and
    inf propagating as in ``ndarray.max``, from a pruned pair scan with one
    floor shared by the columns.  Each column's norm is sup + c * (its
    largest pair quotient at R = 1), with c = 2^alpha, which is monotone
    in the quotient; so each bucket of pairs is bounded by sup + c * (its
    quotient bound), and :func:`_max_norm` scans only the buckets that can
    hold the max.
    """
    rows, sup = _rows(values, alpha, pairs, (2,))
    c, bound = 2.0**alpha, None
    if _prunable(sup, pairs).all():
        bound = _quotient_bounds(rows, alpha, pairs)
        bound *= c
        bound += sup[:, None]
        # rebound, so the (k, buckets) block is freed before the scans
        bound = bound.max(axis=0)
    return float(_max_norm(rows, sup, c, alpha, pairs, bound))


def _rows(values, alpha: float, pairs: PairSet,
          ndims: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The one input path: values (N,) or (N, k), of one of the ndims, as
    k contiguous float64 rows (k, N), copied unless values is their
    transpose (as IterateState.order2 is), and each row's max |v|."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    values = np.asarray(values, dtype=np.float64)
    if values.shape[:1] != (pairs.grid.node_count,) or values.ndim not in ndims:
        raise ValueError(f"values shape {values.shape} does not fit node "
                         f"count {pairs.grid.node_count}")
    rows = np.ascontiguousarray(values.reshape(values.shape[0], -1).T)
    return rows, np.abs(rows).max(axis=1)


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


def _prunable(sup: np.ndarray, pairs: PairSet) -> np.ndarray:
    """Which rows, by their sup, a bucket bound can prune: finite ones
    (inf - inf makes NaN quotients that no bound sees), on sets over
    2 * _FLOOR_PAIRS pairs; the others take the full scan."""
    return np.isfinite(sup) & (pairs.size > 2 * _FLOOR_PAIRS)


def _quotient_bounds(rows: np.ndarray, alpha: float,
                     pairs: PairSet) -> np.ndarray:
    """(k, buckets) bounds on |v(x) - v(y)| / |x - y|^alpha over each
    bucket, one row per row v of rows (k, N).

    With x in cube A and y in cube B, fl(v(x) - v(y)) lies between
    -fl(max_B v - min_A v) and fl(max_A v - min_B v), since rounded
    subtraction is monotone; a division by the bucket's least dist_pow (at
    R = 1) only grows the quotient.  So every pair's float quotient is at most
    its bucket's bound, with no slack.

    Every step runs along the rows: the rows are gathered cube by cube and
    reduced to (k, cubes) maxima and minima; one take of the maxima over
    the bucket ends [cube_a, cube_b] less one take of the minima over
    [cube_b, cube_a] gives both spans of every bucket side by side, and the
    larger half, over the least dist_pow, is the bound.  The same float
    operations as ``oracle.quotient_bounds_reference``, so bitwise its
    bounds, transposed.
    """
    buckets = pairs.buckets
    ends, swapped = buckets.ends()
    by_cube = rows.take(buckets.node_order, axis=1)
    top = np.maximum.reduceat(by_cube, buckets.cube_start, axis=1)
    low = np.minimum.reduceat(by_cube, buckets.cube_start, axis=1)
    span = top.take(ends, axis=1)
    span -= low.take(swapped, axis=1)
    count = buckets.cube_a.shape[0]
    bound = np.maximum(span[:, :count], span[:, count:])
    bound /= pairs.unit.bucket_min_dist_pow(alpha)
    return bound


def _scan(rows: np.ndarray, alpha: float, pairs: PairSet,
          chosen: np.ndarray | None = None) -> np.ndarray:
    """The max of |v(first) - v(second)| / dist_pow at R = 1 for each row v
    of rows (k, N): over every stored pair in stored order, or over the
    pairs of the chosen buckets, each a contiguous range of the stored
    pairs.  One row at a time: a gather of (N, k) rows costs about three
    times more per pair and column."""
    dist_pow = pairs.unit.dist_pow(alpha)
    if chosen is None:
        first, second = pairs.take_ids()
    else:
        indptr = pairs.buckets.indptr
        start = indptr[chosen]
        size = indptr[chosen + 1] - start
        # the stored positions of every chosen pair, bucket after bucket
        at = np.repeat(start - (np.cumsum(size) - size), size)
        at += np.arange(at.shape[0])
        first, second = pairs.first.take(at), pairs.second.take(at)
        dist_pow = dist_pow.take(at)
        del at
    best = np.empty(rows.shape[0])
    for r, row in enumerate(rows):
        # One pair-length buffer: pair indices are in range, and
        # mode="clip" skips the scratch copy that take's default mode makes.
        quotient = row.take(first, mode="clip")
        quotient -= row.take(second, mode="clip")
        np.abs(quotient, out=quotient)
        quotient /= dist_pow
        best[r] = quotient.max()
    return best


def _max_norm(rows: np.ndarray, offset, scale: float, alpha: float,
              pairs: PairSet, bound: np.ndarray | None):
    """The max over the rows r of rows (k, N) and the stored pairs of
    offset[r] + scale * (the pair's quotient at R = 1): the one pruned max
    behind every weighted norm.

    bound, when given, bounds that value over each bucket (buckets,).  The
    buckets of largest bound, enough of them to hold _FLOOR_PAIRS pairs,
    are scanned first for an exact floor (:func:`_floor_buckets`), then
    only the buckets whose bound is not <= that floor.  A skipped bucket
    cannot beat the floor, so the result is the float of a scan of every
    bucket, whichever buckets gave the floor.  Without a bound, or when the
    surviving buckets hold too much of the set for their gather to pay for
    k rows, every pair is scanned in stored order.
    """
    def scan(chosen=None):
        return (offset + scale * _scan(rows, alpha, pairs, chosen)).max()

    if bound is not None:
        k, size = rows.shape[0], pairs.buckets.sizes
        top = _floor_buckets(bound, size, pairs.size)
        best = scan(top)
        live = ~(bound <= best)
        live[top] = False
        rest = np.flatnonzero(live)
        if size[rest].sum() * (k + _GATHER) <= pairs.size * k:
            return max(best, scan(rest)) if rest.size else best
    # inf - inf makes the NaN quotients that a bound never sees
    with np.errstate(invalid="ignore"):
        return scan()


def _floor_buckets(bound: np.ndarray, size: np.ndarray,
                   total: int) -> np.ndarray:
    """The fewest buckets of largest bound that hold _FLOOR_PAIRS pairs,
    in decreasing order of bound (ties in any order), of buckets holding
    size pairs each, total in all.

    A partial sort: np.argpartition picks the m largest bounds, m starting
    at twice the average bucket count of _FLOOR_PAIRS pairs and doubling
    until they hold that many, and only those m are sorted.
    """
    m = min(bound.size, 2 * -(-_FLOOR_PAIRS * bound.size // total))
    while True:
        top = np.argpartition(bound, bound.size - m)[bound.size - m:]
        top = top[np.argsort(bound[top])[::-1]]
        held = np.cumsum(size[top])
        if held[-1] >= _FLOOR_PAIRS or m == bound.size:
            return top[:np.searchsorted(held, _FLOOR_PAIRS) + 1]
        m = min(bound.size, 2 * m)


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


# The Taylor scan runs over consecutive blocks of this many pairs, so that
# its dozen block-long rows stay in a 4 MB L2 cache.  On the 148k-pair set
# of 2D res 33 (one core of a 2-core x86 VM, medians of CPU time over the
# 22-probe battery) blocks of 16k and 32k pairs took 97 and 94 ms, 8k
# pairs 104 ms, and the whole set at once 112 ms.
_TAYLOR_BLOCK = 16384


def taylor_work(pairs: PairSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The buffers :func:`taylor_remainder_ratio` scans in, float64: four
    scratch rows of one block, (4, min(_TAYLOR_BLOCK, pairs.size)), and
    the pair steps x_first - x_second, (n, pairs.size), one row per axis,
    and their squares, computed here once.

    The steps and squares share one (2 n, pairs.size) allocation.  Once
    freed, a block that large raises glibc's dynamic mmap threshold above
    the next pair-set build's temporaries, which then come from the heap:
    with two separate halves, a 2D res-33 lemma suite page-faulted about
    2,850 times per call instead of 3.
    """
    n = pairs.grid.n
    rows = np.empty((2 * n, pairs.size))
    steps = pairs.steps(out=rows[:n])
    return (np.empty((4, min(_TAYLOR_BLOCK, pairs.size))), steps,
            np.square(steps, out=rows[n:]))


def taylor_remainder_ratio(probe: Probe, alpha: float, pairs: PairSet,
                           jet: ProbeJet | None = None,
                           work: tuple | None = None) -> float:
    """Worst ratio of remainder to bound over all pairs, both directions.

    The bound is (1/2) (sum over |beta| = 2 of H_a[d^beta f]) |y-x|^(2+a);
    a return value <= 1 means the remainder inequality held everywhere.
    Pairs where both sides vanish (quadratic fields) contribute 0.  The
    derivatives are the probe's exact ones, so the check certifies the
    inequality and not the stencils.  jet, if given, is
    ``probe_jet(probe, alpha, pairs)``, already measured; work, if given,
    is ``taylor_work(pairs)``, so that a caller scanning many probes
    computes the steps and allocates its scratch rows once.

    The pairs are scanned in consecutive blocks as wide as work's scratch
    rows, each pair by the same operations as in one whole-set scan, and
    the result is the max over the blocks' maxima, bitwise that scan's.
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
    scratch, steps, squares = work
    first, second = pairs.take_ids()
    n = pairs.grid.n
    hess = tuple(zip(multi_indices(n, 2), jet.hess))

    semi_sum = 0.0
    for semi in jet.hess_norms[1].tolist():
        semi_sum += semi
    scale = 0.5 * semi_sum * pairs.grid.R**(2.0 + alpha)
    dist_pow = pairs.unit.dist_pow(2.0 + alpha)

    f = jet.values
    floor = _EPS * max(1.0, float(np.abs(f).max()))
    forward, reverse = [], []
    width = scratch.shape[1]
    for start in range(0, pairs.size, width):
        block = slice(start, start + width)
        i, j = first[block], second[block]
        rhs, f_second, f_first, acc = scratch[:, :i.shape[0]]
        expand = (jet.grads, hess, steps[:, block], squares[:, block])
        np.multiply(scale, dist_pow[block], out=rhs)
        # Each end's f is gathered once: the forward target, f(first), is
        # the reverse base, and the forward base, f(second), the reverse
        # target.  Pair indices are in range, and mode="clip" skips the
        # scratch copy of `out` that take's default makes.
        np.take(f, j, out=f_second, mode="clip")
        _expand(f_second, j, acc, f_first, np.add, *expand)
        np.take(f, i, out=f_first, mode="clip")
        forward.append(_live_max(np.subtract(f_first, acc, out=acc), rhs,
                                 floor))
        _expand(f_first, i, f_first, acc, np.subtract, *expand)
        reverse.append(_live_max(np.subtract(f_second, f_first, out=f_first),
                                 rhs, floor))
    # np.max propagates a block's NaN as one whole-set max would
    return max(0.0, float(np.max(forward)), float(np.max(reverse)))


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
    dead = ~(lhs > floor)
    with np.errstate(divide="ignore", invalid="ignore"):
        lhs /= rhs
    # putmask, a third the cost of a boolean-index assignment
    np.putmask(lhs, dead, 0.0)
    return lhs.max()


def taylor_remainder_holds(ratio: float) -> bool:
    """Verdict of the remainder bound on a :func:`taylor_remainder_ratio`."""
    return ratio <= 1.0 + 1e-9


def comparison_base(grid) -> float:
    """The constant 3 n R of the norm comparison lemma."""
    return 3.0 * grid.n * grid.R


def norm_comparison_holds(orders, base: float) -> bool:
    """Verdict of the comparison lemma on the jet norms, with base = 3 n R."""
    top = orders[2]
    return _within(orders[0], base**2 * top) and _within(orders[1], base * top)
