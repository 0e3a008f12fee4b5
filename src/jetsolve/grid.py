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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Oracle giving exact derivative values: (beta, points) -> values.
DerivOracle = Callable[[tuple[int, ...], np.ndarray], np.ndarray]

_DEFAULT_PAIR_CAP = 200_000


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
    ok = np.all((lat >= 0) & (lat < index_map.shape[0]), axis=-1)
    out = np.full(lat.shape[:-1], -1, dtype=np.int64)
    out[ok] = index_map[tuple(lat[ok].T)]
    return out


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


@dataclass(eq=False)
class VectorField:
    """Tuple of scalar components on a shared grid."""

    components: tuple[ScalarField, ...]

    def __post_init__(self):
        self.components = tuple(self.components)
        if not self.components:
            raise ValueError("VectorField needs at least one component")
        g = self.components[0].grid
        if any(c.grid is not g for c in self.components[1:]):
            raise ValueError("components must share one grid")

    @property
    def grid(self) -> BallGrid:
        return self.components[0].grid

    @property
    def m(self) -> int:
        return len(self.components)

    def values_matrix(self) -> np.ndarray:
        return np.stack([c.values for c in self.components], axis=1)


def field_from_callable(grid: BallGrid, fn, analytic_derivs=None) -> ScalarField:
    return ScalarField(grid, np.asarray(fn(grid.nodes), dtype=np.float64),
                       analytic_derivs=analytic_derivs)


def vector_field_from_matrix(grid: BallGrid, values: np.ndarray) -> VectorField:
    values = np.asarray(values, dtype=np.float64)
    return VectorField(tuple(ScalarField(grid, values[:, c])
                             for c in range(values.shape[1])))


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


def _nearest(grid: BallGrid, nodes: np.ndarray, K: int) -> np.ndarray:
    """The K nearest nodes to each of nodes, ties broken by lattice index.

    Candidates come from the lattice box of half-width 3 around each node;
    a node whose K-th candidate is not closer than every lattice point
    outside the box (or whose box is too small to hold K nodes) is searched
    again in a box twice as wide.
    """
    n = grid.n
    out = np.empty((nodes.shape[0], K), dtype=np.int64)
    todo = np.arange(nodes.shape[0])
    box = 3
    while todo.size:
        if (2 * box + 1) ** n < K:  # too few lattice points to hold K nodes
            box = min(2 * box, grid.res - 1)
            continue
        offsets = np.asarray(list(itertools.product(range(-box, box + 1),
                                                    repeat=n)))
        lat = grid.lattice[nodes[todo], None, :] + offsets
        cand = _lookup(grid.index_map, lat)
        diff = (grid.nodes[cand] - grid.nodes[nodes[todo], None, :]).reshape(-1, n)
        d2 = np.einsum("ij,ij->i", diff, diff).reshape(cand.shape)
        d2[cand < 0] = np.inf
        keys = tuple(lat[..., d] for d in range(n - 1, -1, -1)) + (d2,)
        order = np.lexsort(keys, axis=-1)[:, :K]
        kth = np.take_along_axis(d2, order[:, K - 1:], axis=1)[:, 0]
        # every lattice point outside the box is at least (box + 1) h away
        done = kth < ((box + 1) * grid.h) ** 2 * (1.0 - 1e-9)
        if box >= grid.res - 1:  # the box holds every node
            done[:] = True
        out[todo[done]] = np.take_along_axis(cand[done], order[done], axis=1)
        todo = todo[~done]
        box = min(2 * box, grid.res - 1)
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
    nm, N = mono.shape[0], grid.node_count
    K = min(N, 2 * nm)
    groups = []
    while nodes.size:
        nbr = _nearest(grid, nodes, K)
        xi = (grid.nodes[nbr] - grid.nodes[nodes, None, :]) / grid.h
        V = np.prod(xi[:, :, None, :] ** mono, axis=-1)
        full = (np.linalg.matrix_rank(V) == nm) | (K >= N)
        if full.any():
            groups.append((nodes[full], nbr[full], np.linalg.pinv(V[full])))
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
    """

    grid: BallGrid
    first: np.ndarray
    second: np.ndarray
    dist: np.ndarray
    complete: bool
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

    @classmethod
    def from_pairs(cls, grid: BallGrid, first, second) -> "PairSet":
        first = np.asarray(first, dtype=np.int64)
        second = np.asarray(second, dtype=np.int64)
        if first.shape != second.shape or first.ndim != 1:
            raise ValueError("pair index arrays must be 1-D and equal length")
        if np.any(first == second):
            raise ValueError("pairs must join distinct nodes")
        diff = grid.nodes[first] - grid.nodes[second]
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        return cls(grid=grid, first=first, second=second, dist=dist,
                   complete=False)


def build_pair_set(grid: BallGrid, seed: int = 0,
                   cap: int = _DEFAULT_PAIR_CAP) -> PairSet:
    N = grid.node_count
    if cap < 2 * N:
        raise ValueError(f"pair cap {cap} too small for {N} nodes")
    total = N * (N - 1) // 2
    if total <= cap:
        iu, ju = np.triu_indices(N, k=1)
        ps = PairSet.from_pairs(grid, iu, ju)
        ps.complete = True
        return ps

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
    return PairSet.from_pairs(grid, np.concatenate(firsts),
                              np.concatenate(seconds))
