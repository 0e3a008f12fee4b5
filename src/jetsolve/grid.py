"""Discretization of the ball B_R: tensor grid, finite differences, pair sampling.

The grid is a Cartesian lattice clipped to the closed ball.  The resolution is
odd so the origin is always a node, and axis endpoints land exactly on |x| = R.
Every derivative of order 1 or 2 is read off one stencil table per grid: a
sparse row per (multi-index, node), built once and applied as one gather plus
a segmented sum.  A row holds the 2nd-order central stencil where it fits
inside the ball, else a 2nd-order one-sided stencil, else (at the handful of
nodes, e.g. the poles, whose lattice line is too short for either) a
least-squares quadratic fit on the nearest nodes.  Every row reproduces
polynomials of degree <= 2 exactly.

The nearest nodes of a fit are searched in a lattice ball of integer radius
r around the node, grown by one until it holds K nodes: every lattice point
outside the ball is farther than every point inside, so the K nearest
candidates are the K nearest nodes.  They are ordered by the float squared
distance, ties going to the lower lattice index.

A pair set, for the Hölder seminorms, stores its node pairs bucket by
bucket: nodes are grouped into lattice cubes, and a bucket holds the pairs
joining one unordered pair of cubes, as one contiguous slice of every
pair-length array.  The Hölder scans bound whole buckets from the cubes'
value ranges and read only the slices that can hold a max.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Oracle giving exact derivative values: (beta, points) -> values.
DerivOracle = Callable[[tuple[int, ...], np.ndarray], np.ndarray]

DEFAULT_PAIR_CAP = 200_000


@dataclass(eq=False)
class BallGrid:
    """Cartesian tensor grid clipped to the closed ball of radius R."""

    n: int
    R: float
    res: int
    h: float
    cell_volume: float
    nodes: np.ndarray        # (N, n) float coordinates
    lattice: np.ndarray      # (N, n) integer lattice indices
    index_map: np.ndarray    # (res,)*n -> node index, -1 outside the ball
    interior_mask: np.ndarray  # True where every unit-offset neighbor is a node
    origin_index: int
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @property
    def boundary_mask(self) -> np.ndarray:
        return ~self.interior_mask


def _lookup(index_map: np.ndarray, lat: np.ndarray) -> np.ndarray:
    """Node index at each lattice point of lat (..., n); -1 where absent."""
    res = index_map.shape[0]
    ok = np.all((lat >= 0) & (lat < res), axis=-1)
    flat = lat @ (res ** np.arange(lat.shape[-1] - 1, -1, -1))
    return np.where(ok, index_map.reshape(-1).take(flat, mode="clip"), -1)


def build_grid(n: int, R: float, res: int) -> BallGrid:
    """Build the clipped tensor grid on B_R.

    res must be odd and >= 5 so the origin is a node and one-sided stencils
    have room; nodes keep every lattice point with |x| <= R.
    """
    if n not in (2, 3):
        raise ValueError(f"n must be 2 or 3, got {n}")
    if not (R > 0) or not np.isfinite(R):
        raise ValueError(f"R must be positive and finite, got {R}")
    if res < 5 or res % 2 == 0:
        raise ValueError(f"res must be odd and >= 5, got {res}")

    axis = np.linspace(-R, R, res)
    h = 2.0 * R / (res - 1)
    lat_full = np.stack(
        np.meshgrid(*([np.arange(res)] * n), indexing="ij"), axis=-1
    ).reshape(-1, n)
    pts = axis[lat_full]
    r2 = np.einsum("ij,ij->i", pts, pts)
    keep = r2 <= R * R * (1.0 + 1e-12)
    lattice = np.ascontiguousarray(lat_full[keep])
    nodes = np.ascontiguousarray(pts[keep])
    N = nodes.shape[0]

    index_map = np.full((res,) * n, -1, dtype=np.int64)
    index_map[tuple(lattice.T)] = np.arange(N)

    center = (res - 1) // 2
    origin_index = int(index_map[(center,) * n])
    if origin_index < 0:  # pragma: no cover - origin is always inside
        raise RuntimeError("origin node missing")

    unit_box = np.asarray(list(itertools.product((-1, 0, 1), repeat=n)))
    interior = np.all(_lookup(index_map, lattice[:, None, :] + unit_box) >= 0,
                      axis=1)

    return BallGrid(
        n=n, R=float(R), res=res, h=h, cell_volume=h**n,
        nodes=nodes, lattice=lattice, index_map=index_map,
        interior_mask=interior, origin_index=origin_index,
    )


@dataclass(eq=False)
class ScalarField:
    """Scalar function sampled on the grid nodes.

    analytic_derivs, when present, maps (beta, points) to exact derivative
    values and is preferred over finite differences.
    """

    grid: BallGrid
    values: np.ndarray
    analytic_derivs: DerivOracle | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.grid.node_count,):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"node count {self.grid.node_count}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")


def field_from_callable(grid: BallGrid, fn, analytic_derivs=None) -> ScalarField:
    return ScalarField(grid, np.asarray(fn(grid.nodes), dtype=np.float64),
                       analytic_derivs=analytic_derivs)


# ---------------------------------------------------------------------------
# finite differences: one stencil table per grid


def multi_indices(n: int, order: int) -> list[tuple[int, ...]]:
    """Multi-indices of one order, in lexicographic order of their axes."""
    out = []
    for combo in itertools.combinations_with_replacement(range(n), order):
        beta = [0] * n
        for d in combo:
            beta[d] += 1
        out.append(tuple(beta))
    return out


def _canonical_beta(n: int, beta) -> tuple[int, ...]:
    beta = tuple(int(b) for b in beta)
    if len(beta) != n or any(b < 0 for b in beta):
        raise ValueError(f"bad multi-index {beta} for n={n}")
    if sum(beta) > 2:
        raise ValueError(f"only derivatives of order <= 2 supported, got {beta}")
    return beta


# Fixed stencils, tried in order: (lattice steps along the derivative's axes,
# weights in units of h^-|beta|).  Central first, then one-sided forward and
# backward; a node none of them fits gets a least-squares quadratic fit.
_FIRST = ((((1,), (-1,)), (0.5, -0.5)),
          (((0,), (1,), (2,)), (-1.5, 2.0, -0.5)),
          (((0,), (-1,), (-2,)), (1.5, -2.0, 0.5)))
_PURE = ((((1,), (0,), (-1,)), (1.0, -2.0, 1.0)),
         (((0,), (1,), (2,), (3,)), (2.0, -5.0, 4.0, -1.0)),
         (((0,), (-1,), (-2,), (-3,)), (2.0, -5.0, 4.0, -1.0)))
_MIXED = ((((1, 1), (1, -1), (-1, 1), (-1, -1)), (0.25, -0.25, -0.25, 0.25)),)


@dataclass(frozen=True)
class StencilTable:
    """Finite-difference rows of one grid, one per (multi-index, node).

    Row b * N + k holds the stencil of multi-index betas[b] at node k: its
    entries indptr[row]:indptr[row + 1] of index (neighbour nodes) and
    weight (in units of h^-|beta|).
    """

    betas: tuple[tuple[int, ...], ...]
    indptr: np.ndarray
    index: np.ndarray
    weight: np.ndarray


def _ball_offsets(n: int, r: int) -> np.ndarray:
    """The lattice offsets o with |o|^2 <= r^2, as (count, n) rows in
    lattice (lexicographic) order."""
    span = np.arange(-r, r + 1)
    box = np.stack(np.meshgrid(*([span] * n), indexing="ij"),
                   axis=-1).reshape(-1, n)
    return box[np.einsum("ij,ij->i", box, box) <= r * r]


def _nearest(grid: BallGrid, nodes: np.ndarray, K: int) -> np.ndarray:
    """The K nearest nodes to each of nodes, by the float squared distance.

    Ties in that distance go to the lower lattice index.  The float
    distances of equal lattice distances round differently with R, so
    where lattice distances tie, rounding noise, not the lattice, decides
    the order, and the result can change with R at fixed (n, res).

    Candidates come from the lattice ball of integer radius r around each
    node, r starting where the ball holds K lattice points; a node whose
    K-th candidate is not closer than every lattice point outside the ball
    (each at least sqrt(r^2 + 1) h away) is searched again at r + 1.
    """
    n = grid.n
    out = np.empty((nodes.shape[0], K), dtype=np.int64)
    todo = np.arange(nodes.shape[0])
    r = 1
    while _ball_offsets(n, r).shape[0] < K:
        r += 1
    while todo.size:
        lat = grid.lattice[nodes[todo], None, :] + _ball_offsets(n, r)
        cand = _lookup(grid.index_map, lat)
        diff = (grid.nodes[cand] - grid.nodes[nodes[todo], None, :]).reshape(-1, n)
        d2 = np.einsum("ij,ij->i", diff, diff).reshape(cand.shape)
        d2[cand < 0] = np.inf
        # the offsets run in lattice order, so a stable sort breaks ties
        # in d2 by lattice index
        order = np.argsort(d2, axis=-1, kind="stable")[:, :K]
        kth = np.take_along_axis(d2, order[:, K - 1:], axis=1)[:, 0]
        done = kth < (r * r + 1) * grid.h**2 * (1.0 - 1e-9)
        out[todo[done]] = np.take_along_axis(cand[done], order[done], axis=1)
        todo = todo[~done]
        r += 1
    return out


def _quadratic_fits(grid: BallGrid, nodes: np.ndarray) -> list:
    """Least-squares quadratic fits at the given nodes.

    Each node fits the monomials of degree <= 2 on its K nearest nodes, K
    starting at twice the monomial count and growing by the monomial count
    until the fit has full rank.  Returns (nodes, neighbours, pinv) groups,
    one per K; pinv maps neighbour values to the coefficients, in
    (x - x_node) / h, of the multi-indices of order 0, 1 and 2 in order.
    """
    mono = np.asarray([b for order in (0, 1, 2)
                       for b in multi_indices(grid.n, order)])
    axes = np.arange(grid.n)
    nm, N = mono.shape[0], grid.node_count
    K = min(N, 2 * nm)
    groups = []
    while nodes.size:
        nbr = _nearest(grid, nodes, K)
        xi = (grid.nodes[nbr] - grid.nodes[nodes, None, :]) / grid.h
        # each xi ** e for e = 0, 1, 2 once, then picked per monomial
        powers = xi[:, :, None, :] ** np.arange(3)[:, None]
        V = np.prod(powers[:, :, mono, axes], axis=-1)
        # One SVD serves both the rank test and the pseudo-inverse, each
        # written as np.linalg.matrix_rank and np.linalg.pinv compute them.
        u, s, vt = np.linalg.svd(V, full_matrices=False)
        rank_tol = s.max(axis=-1, keepdims=True, initial=0) * (
            max(K, nm) * np.finfo(s.dtype).eps)
        full = (np.count_nonzero(s > rank_tol, axis=-1) == nm) | (K >= N)
        if full.any():
            u, s, vt = u[full], s[full], vt[full]
            large = s > 1e-15 * s.max(axis=-1, keepdims=True)
            s = np.divide(1, s, where=large, out=s)
            s[~large] = 0
            pinv = np.matmul(vt.swapaxes(-1, -2),
                             s[..., None] * u.swapaxes(-1, -2))
            groups.append((nodes[full], nbr[full], pinv))
        nodes = nodes[~full]
        K = min(N, K + nm)
    return groups


def stencil_table(grid: BallGrid) -> StencilTable:
    """The grid's finite-difference table for every 1 <= |beta| <= 2.

    Built on first use and cached on the grid.  Each (beta, node) row is
    the first fixed stencil whose nodes all exist, or else the node's
    least-squares quadratic fit; all of them reproduce quadratics exactly.
    """
    key = "stencil_table"
    if key in grid._cache:
        return grid._cache[key]
    n, N = grid.n, grid.node_count
    betas = tuple(multi_indices(n, 1) + multi_indices(n, 2))
    parts = []          # (rows, neighbours (s, k), weights (k,) or (s, k))
    starved = []
    for b, beta in enumerate(betas):
        axes = [d for d, k in enumerate(beta) if k]
        stencils = (_MIXED if len(axes) == 2
                    else _FIRST if sum(beta) == 1 else _PURE)
        free = np.ones(N, dtype=bool)
        for steps, weights in stencils:
            offsets = np.zeros((len(steps), n), dtype=np.int64)
            offsets[:, axes] = steps
            nbr = _lookup(grid.index_map, grid.lattice[:, None, :] + offsets)
            take = free & np.all(nbr >= 0, axis=1)
            parts.append((b * N + np.nonzero(take)[0], nbr[take],
                          np.asarray(weights)))
            free &= ~take
        starved.append(free)

    fact = [math.prod(math.factorial(k) for k in beta) for beta in betas]
    any_starved = np.nonzero(np.any(starved, axis=0))[0]
    for nodes, nbr, pinv in _quadratic_fits(grid, any_starved):
        for b in range(len(betas)):
            sel = starved[b][nodes]
            # the fit's coefficient 0 is the constant, 1 + b is betas[b]
            parts.append((b * N + nodes[sel], nbr[sel],
                          pinv[sel, 1 + b, :] * fact[b]))

    width = np.zeros(len(betas) * N, dtype=np.int64)
    for rows, nbr, _ in parts:
        width[rows] = nbr.shape[1]
    indptr = np.concatenate(([0], np.cumsum(width)))
    index = np.empty(indptr[-1], dtype=np.int64)
    weight = np.empty(indptr[-1])
    for rows, nbr, w in parts:
        slots = indptr[rows][:, None] + np.arange(nbr.shape[1])
        index[slots] = nbr
        weight[slots] = w
    table = StencilTable(betas=betas, indptr=indptr, index=index, weight=weight)
    grid._cache[key] = table
    return table


def fd_values(grid: BallGrid, vals: np.ndarray, beta: tuple[int, ...],
              node: int | None = None) -> np.ndarray:
    """Finite-difference derivative of raw node values (no oracle shortcut).

    vals has shape (N,) or (N, m); the result has the same shape, or drops
    the node axis when node picks the single row to evaluate.
    """
    beta = _canonical_beta(grid.n, beta)
    vals = np.asarray(vals, dtype=np.float64)
    if vals.shape[:1] != (grid.node_count,) or vals.ndim > 2:
        raise ValueError(f"values shape {vals.shape} does not fit "
                         f"{grid.node_count} nodes")
    order = sum(beta)
    if order == 0:
        return (vals if node is None else vals[node]).copy()
    table = stencil_table(grid)
    N = grid.node_count
    first, count = (0, N) if node is None else (node, 1)
    start = table.betas.index(beta) * N + first
    ptr = table.indptr[start:start + count + 1]
    lo, hi = ptr[0], ptr[-1]
    w = table.weight[lo:hi].reshape((-1,) + (1,) * (vals.ndim - 1))
    out = np.add.reduceat(vals[table.index[lo:hi]] * w, ptr[:-1] - lo, axis=0)
    out /= grid.h**order
    return out if node is None else out[0]


def fd_derivative(field: ScalarField, beta) -> ScalarField:
    """Derivative field for a multi-index with |beta| <= 2.

    Exact values are copied from the field's analytic oracle when present;
    otherwise the grid's stencil table is applied.
    """
    grid = field.grid
    beta = _canonical_beta(grid.n, beta)
    if field.analytic_derivs is not None:
        vals = np.asarray(field.analytic_derivs(beta, grid.nodes), dtype=np.float64)
        if vals.shape != (grid.node_count,):
            raise ValueError("analytic_derivs returned a bad shape")
        return ScalarField(grid, vals)
    return ScalarField(grid, fd_values(grid, field.values, beta))


# ---------------------------------------------------------------------------
# pair sampling for discrete Hölder seminorms


@dataclass(eq=False)
class PairSet:
    """Node-index pairs used for discrete Hölder seminorms.

    Always contains every antipodal pair (x, -x) and every (node, origin)
    pair; when the grid is small enough all pairs are used, otherwise the
    remainder is drawn from a seeded generator up to the cap.

    The pairs are stored bucket by bucket (see :class:`PairBuckets`), in
    drawn order (triu order for a complete set, given order for
    :meth:`from_pairs`) inside each bucket: bucket b is the slice
    buckets.indptr[b]:buckets.indptr[b + 1] of first, second, dist,
    dist_pow and steps(), so a scan of chosen buckets reads contiguous
    ranges.
    """

    grid: BallGrid
    first: np.ndarray
    second: np.ndarray
    dist: np.ndarray
    complete: bool
    buckets: PairBuckets
    _pow_cache: dict = field(default_factory=dict, repr=False)
    _steps: tuple | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.first.shape[0]

    def dist_pow(self, alpha: float) -> np.ndarray:
        key = float(alpha)
        if key not in self._pow_cache:
            self._pow_cache[key] = self.dist**key
        return self._pow_cache[key]

    def steps(self) -> tuple[np.ndarray, ...]:
        """Offsets x_first - x_second, one contiguous array per axis."""
        if self._steps is None:
            nodes = self.grid.nodes
            self._steps = tuple(nodes[self.first, d] - nodes[self.second, d]
                                for d in range(self.grid.n))
        return self._steps

    def bucket_min_dist_pow(self, alpha: float) -> np.ndarray:
        """The least dist_pow(alpha) of each bucket."""
        key = float(alpha)
        least = self.buckets.min_dist_pow
        if key not in least:
            least[key] = np.minimum.reduceat(self.dist_pow(key),
                                             self.buckets.indptr[:-1])
        return least[key]

    @classmethod
    def from_pairs(cls, grid: BallGrid, first, second) -> "PairSet":
        """The pair set of the pairs (first[p], second[p]): copies of the
        two arrays, regrouped bucket by bucket with their given order kept
        inside each bucket."""
        return _pair_set(grid, np.array(first, dtype=np.int64),
                         np.array(second, dtype=np.int64))


@dataclass(eq=False)
class PairBuckets:
    """The pairs of a PairSet grouped by the lattice cubes of their nodes.

    Cube c holds the nodes node_order[cube_start[c]:cube_start[c + 1]].
    Bucket b holds the pairs whose nodes lie in the cubes cube_a[b] <=
    cube_b[b], in either orientation: the pair set stores them as the
    slice indptr[b]:indptr[b + 1].  min_dist_pow caches, per alpha, the
    least dist_pow of each bucket.
    """

    node_order: np.ndarray
    cube_start: np.ndarray
    indptr: np.ndarray
    cube_a: np.ndarray
    cube_b: np.ndarray
    min_dist_pow: dict = field(default_factory=dict, repr=False)


def _pair_set(grid: BallGrid, first: np.ndarray, second: np.ndarray,
              complete: bool = False) -> PairSet:
    """The pair set of the int64 arrays first and second, which it takes
    over: they are regrouped bucket by bucket in place, so a pair set's
    build holds no second copy of its pairs."""
    if first.shape != second.shape or first.ndim != 1:
        raise ValueError("pair index arrays must be 1-D and equal length")
    if np.any(first == second):
        raise ValueError("pairs must join distinct nodes")
    buckets, order = _bucket_pairs(grid, first, second)
    first[:] = first.take(order)
    second[:] = second.take(order)
    del order
    # gathered column by column: one coordinate array per axis is far
    # cheaper to index than the (N, n) rows
    diff = np.empty((first.shape[0], grid.n))
    for d in range(grid.n):
        column = np.ascontiguousarray(grid.nodes[:, d])
        np.subtract(column.take(first), column.take(second), out=diff[:, d])
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return PairSet(grid=grid, first=first, second=second, dist=dist,
                   complete=complete, buckets=buckets)


# Cube ids then fit in uint8 and bucket keys cube_a * count + cube_b in uint16.
_MAX_CUBES = 256


def _node_cubes(grid: BallGrid) -> tuple[np.ndarray, int]:
    """Each node's lattice cube, numbered 0..count-1 over the cubes that
    hold nodes.  The cube side is 4 lattice steps, or the least side
    giving at most _MAX_CUBES cubes."""
    side = 4
    while True:
        cells = -(-grid.res // side)
        flat = (grid.lattice // side) @ (cells ** np.arange(grid.n - 1, -1, -1))
        present, cube = np.unique(flat, return_inverse=True)
        if present.size <= _MAX_CUBES:
            return cube.astype(np.uint8), present.size
        side += 1


def _bucket_pairs(grid: BallGrid, first: np.ndarray,
                  second: np.ndarray) -> tuple[PairBuckets, np.ndarray]:
    """The buckets of the pairs (first, second), and the permutation that
    stores them bucket by bucket, keeping their order inside each."""
    cube, count = _node_cubes(grid)
    node_order = np.argsort(cube, kind="stable")
    cube_start = np.searchsorted(cube[node_order], np.arange(count))
    # uint16 keys of the unordered cube pair: a stable radix sort groups
    # the pairs by bucket and keeps their order inside each
    ca, cb = cube.take(first), cube.take(second)
    key = np.minimum(ca, cb).astype(np.uint16)
    key *= count
    key += np.maximum(ca, cb)
    del ca, cb
    order = np.argsort(key, kind="stable")
    sizes = np.bincount(key, minlength=count * count)
    present = np.flatnonzero(sizes)
    indptr = np.concatenate(([0], np.cumsum(sizes[present])))
    cube_a, cube_b = np.divmod(present, count)
    return PairBuckets(node_order=node_order, cube_start=cube_start,
                       indptr=indptr, cube_a=cube_a, cube_b=cube_b), order


def build_pair_set(grid: BallGrid, seed: int = 0,
                   cap: int = DEFAULT_PAIR_CAP) -> PairSet:
    N = grid.node_count
    if cap < 2 * N:
        raise ValueError(f"pair cap {cap} too small for {N} nodes")
    total = N * (N - 1) // 2
    if total <= cap:
        return _pair_set(grid, *np.triu_indices(N, k=1), complete=True)
    # the draws are made in a helper, so its temporaries are freed before
    # _pair_set allocates its own pair-length arrays
    return _pair_set(grid, *_sampled_pairs(grid, seed, cap))


def _sampled_pairs(grid: BallGrid, seed: int,
                   cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The first and second nodes of cap pairs: the forced ones, then
    seeded uniform draws of distinct nodes."""
    N = grid.node_count
    # forced pairs: antipodes and rays to the origin
    anti_lat = (grid.res - 1) - grid.lattice
    anti = grid.index_map[tuple(anti_lat.T)]
    idx = np.arange(N)
    mask = (anti >= 0) & (idx < anti)
    firsts = [idx[mask]]
    seconds = [anti[mask]]
    o = grid.origin_index
    not_o = idx[idx != o]
    firsts.append(not_o)
    seconds.append(np.full(not_o.shape[0], o, dtype=np.int64))

    forced = int(sum(a.shape[0] for a in firsts))
    rng = np.random.default_rng(seed)
    need = cap - forced
    draws = []
    got = 0
    while got < need:
        a = rng.integers(0, N, size=need - got + 1024)
        b = rng.integers(0, N, size=need - got + 1024)
        ok = a != b
        a, b = a[ok], b[ok]
        take = min(a.shape[0], need - got)
        draws.append((a[:take], b[:take]))
        got += take
    firsts.extend(d[0] for d in draws)
    seconds.extend(d[1] for d in draws)
    return np.concatenate(firsts), np.concatenate(seconds)
