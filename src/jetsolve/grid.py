"""Discretization of the ball B_R: lattice ball, stencils, pair sampling.

The grid is a Cartesian lattice clipped to the closed ball.  The resolution is
odd so the origin is always a node, and axis endpoints land exactly on |x| = R.

A radius is one number.  Every array lives on a :class:`LatticeBall`,
shared by the grids of every radius at its (n, res): the lattice, the
stencil table below, the pairs, and the quadrature and kernel spectra of
the potential module, each R-free or built at R = 1.  A
:class:`BallGrid` is the ball plus R, h and the node coordinates, and
every R-dependent quantity is a ball array times a power of R.

Every derivative of order 1 or 2 is read off one stencil table per lattice
ball, in units of h^-|beta|: a sparse row per (multi-index, node), applied
as one gather plus a segmented sum.  The rows of consecutive multi-indices
are one contiguous range, so all derivatives of a field come from one
such pass.  A row holds the 2nd-order central
stencil where it fits inside the ball, else a 2nd-order one-sided stencil,
else (where the lattice lines through the node are too short for either) a
least-squares quadratic fit on the nearest nodes.  Near the rim those rows
are many, mostly mixed derivatives: 3,642 rows at 1,440 of the 4,169 nodes
of 3D res 21, 3,498 of them mixed, and 132 rows at 124 of the 797 nodes of
2D res 33, 124 of them mixed.  Every row reproduces polynomials of degree
<= 2 exactly.

The least-squares rows are fitted once per symmetry class of the actual
neighbour set: a signed permutation of the axes takes each node's offsets
to a canonical frame, nodes whose neighbour offsets agree there share one
fit, and the class's first node is fitted directly while the others take
its rows through the symmetry (weights permuted and sign-flipped, so equal
to a direct fit up to rounding).

The nearest nodes of a fit are searched in a lattice ball of integer radius
r around the node, grown by one until it holds K nodes: every lattice point
outside the ball is farther than every point inside, so the K nearest
candidates are the K nearest nodes.  They are ordered by the integer squared
lattice distance, ties going to the smaller float squared distance on the
unit grid (R = 1), then to the lower lattice index.

A pair set, for the Hölder seminorms, stores its node pairs bucket by
bucket: nodes are grouped into lattice cubes, and a bucket holds the pairs
joining one unordered pair of cubes, as one contiguous slice of every
pair-length array.  The Hölder scans bound whole buckets from the cubes'
value ranges and read only the slices that can hold a max.  A sampled set
keeps each drawn unordered pair once.

Pair geometry is integer.  A pair keeps its lattice offset, one small
signed integer per axis, and its squared lattice distance d2, a small
unsigned integer; no float is stored per pair.  Every distance at R = 1 is
unit_h * sqrt(k) for some k <= n (res - 1)^2, so the ball keeps that table
once, and a pair's distance, its power |x - y|^alpha and a bucket's least
power (the power at the bucket's least d2) are reads of the table and of
its elementwise power.  Those reads are bitwise the float route's:
sqrt and the product by unit_h are correctly rounded, a power depends on
its operand alone, and all three are monotone.  The tests pin the power's
two properties, and the int32 pair draws being the int64 stream, for the
numpy in use.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .systems import integral_value

# The most pairs a pair set holds: a grid with more node pairs gets a
# seeded sample of this many.
PAIR_CAP = 200_000


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


class LatticeBall:
    """The R-free structure shared by the grids of one (n, res).

    The kept lattice points (N, n), those with |k - c| <= c for the centre
    index c, in lexicographic order; the index map (-1 outside the ball),
    the interior mask (every unit-offset neighbour is a node), the origin's
    node index, and the nodes unit_nodes and spacing unit_h at R = 1.  The
    tables built on first use go into _shared.  It holds no grid, and its
    arrays are read-only but for the pair ids (see :meth:`PairSet.take_ids`).
    """

    def __init__(self, n: int, res: int):
        if n not in (2, 3):
            raise ValueError(f"n must be 2 or 3, got {n}")
        if res < 5 or res % 2 == 0:
            raise ValueError(f"res must be odd and >= 5, got {res}")
        c = (res - 1) // 2
        box = np.stack(np.meshgrid(*([np.arange(res)] * n), indexing="ij"),
                       axis=-1).reshape(-1, n)
        offset = box - c
        lattice = box[np.einsum("ij,ij->i", offset, offset) <= c * c]
        index_map = np.full((res,) * n, -1, dtype=np.int64)
        index_map[tuple(lattice.T)] = np.arange(lattice.shape[0])
        self.n, self.res = n, res
        self.lattice, self.index_map = _read_only(lattice, index_map)
        self.origin_index = int(index_map[(c,) * n])
        # the grid at R = 1, exactly as build_grid(n, 1.0, res) makes it
        self.unit_h = 2.0 / (res - 1)
        self.unit_nodes = _read_only(np.linspace(-1.0, 1.0, res)[lattice])[0]
        # tables built on first use: stencils, cubes, pairs, quadrature
        self._shared: dict = {}
        unit_box = np.asarray(list(itertools.product((-1, 0, 1), repeat=n)))
        self.interior_mask = _read_only(np.all(
            _neighbours(self, np.arange(lattice.shape[0]), unit_box) >= 0,
            axis=1))[0]

    @property
    def node_count(self) -> int:
        return self.lattice.shape[0]


def _forward(owner: str, name: str) -> property:
    return property(lambda self: getattr(getattr(self, owner), name),
                    doc=f"The {owner}'s {name}.")


@dataclass(eq=False)
class BallGrid:
    """Cartesian tensor grid clipped to the closed ball of radius R.

    A grid is its lattice ball plus R, h and the node coordinates (N, n);
    every other array it reads is the ball's, R-free or taken at R = 1.
    """

    ball: LatticeBall
    R: float
    h: float
    nodes: np.ndarray        # (N, n) float coordinates
    # Nothing writes _cache; the benchmark's traced mode iterates it, and
    # the benchmark change of ROADMAP item 1 deletes both.
    _cache: dict = field(default_factory=dict, repr=False)

    n = _forward("ball", "n")
    res = _forward("ball", "res")
    lattice = _forward("ball", "lattice")
    index_map = _forward("ball", "index_map")
    interior_mask = _forward("ball", "interior_mask")
    origin_index = _forward("ball", "origin_index")
    node_count = _forward("ball", "node_count")


def _neighbours(ball: LatticeBall, nodes: np.ndarray,
                offsets: np.ndarray) -> np.ndarray:
    """The node at lattice[nodes] + offsets, (len(nodes), len(offsets)),
    -1 where there is none.

    It reads the index map padded with -1 by a margin of at least the
    largest |offset| component, so each lookup is one flat shift and one
    gather, with no bounds test.  The padded map is kept on the ball until
    the stencil table is built, and widened when a larger margin is asked
    for.
    """
    margin = max(1, int(np.abs(offsets).max()))
    padded = ball._shared.get("padded_index")
    if padded is None or padded[0] < margin:
        res, n = ball.res, ball.n
        strides = (res + 2 * margin) ** np.arange(n - 1, -1, -1)
        padded = (margin, strides, (ball.lattice + margin) @ strides,
                  np.pad(ball.index_map, margin,
                         constant_values=-1).reshape(-1))
        ball._shared["padded_index"] = padded
    _, strides, start, flat = padded
    return flat.take(start[nodes, None] + offsets @ strides)


def build_grid(n: int, R: float, res: int,
               ball: LatticeBall | None = None) -> BallGrid:
    """Build the clipped tensor grid on B_R.

    res must be odd and >= 5 so the origin is a node and one-sided stencils
    have room; nodes keep every lattice point with |x| <= R.  ball, when
    given, must be the lattice ball of (n, res), shared with every grid
    built on it; without one the grid gets its own.
    """
    if not (R > 0) or not np.isfinite(R):
        raise ValueError(f"R must be positive and finite, got {R}")
    if ball is None:
        ball = LatticeBall(n, res)
    elif (ball.n, ball.res) != (n, res):
        raise ValueError(f"lattice ball has (n, res) = ({ball.n}, "
                         f"{ball.res}), not ({n}, {res})")
    h = 2.0 * R / (res - 1)
    nodes = np.linspace(-R, R, res)[ball.lattice]
    return BallGrid(ball=ball, R=float(R), h=h, nodes=nodes)


# ---------------------------------------------------------------------------
# finite differences: one stencil table per lattice ball


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
    if not 1 <= sum(beta) <= 2:
        raise ValueError(f"only derivatives of order 1 or 2 supported, "
                         f"got {beta}")
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
    """Finite-difference rows of one lattice ball, one per (multi-index,
    node).

    Row b * N + k holds the stencil of multi-index betas[b] at node k: its
    entries indptr[row]:indptr[row + 1] of index (neighbour nodes) and
    weight (in units of h^-|beta|).  index is a read-only view of
    _take_index, which table passes gather through: ndarray.take copies an
    index array that is not writeable on every call.
    """

    betas: tuple[tuple[int, ...], ...]
    indptr: np.ndarray
    index: np.ndarray
    weight: np.ndarray
    _take_index: np.ndarray = field(repr=False)


def _ball_offsets(ball: LatticeBall, r: int) -> np.ndarray:
    """The lattice offsets o with |o|^2 <= r^2, as (count, n) rows in
    lattice (lexicographic) order; built once per ball and r, read-only."""
    key = ("ball_offsets", r)
    if key not in ball._shared:
        span = np.arange(-r, r + 1)
        box = np.stack(np.meshgrid(*([span] * ball.n), indexing="ij"),
                       axis=-1).reshape(-1, ball.n)
        ball._shared[key] = _read_only(
            box[np.einsum("ij,ij->i", box, box) <= r * r])[0]
    return ball._shared[key]


def _nearest(ball: LatticeBall, nodes: np.ndarray, K: int) -> np.ndarray:
    """The K nearest nodes to each of nodes, by the integer squared lattice
    distance.

    Ties go to the smaller float squared distance on the unit grid (the
    nodes of build_grid at R = 1), then to the lower lattice index.  As
    scaling by 2 is exact, that is the order a sort on a grid's own float
    distances gives at every R = 2^k, so such grids keep those neighbours,
    and the answers computed with them, while the table stays R-free.
    Ties by lattice index alone pick other nodes inside the tie shells and
    move a 3D res-7 solve's residual by 2.7e-6 relative.

    Candidates come from the lattice ball of integer radius r around each
    node, r starting where the ball holds K lattice points; a node whose
    K-th candidate has squared distance above r^2 (every lattice point
    outside the ball has at least r^2 + 1) is searched again at r + 1.
    """
    unit = ball.unit_nodes
    out = np.empty((nodes.shape[0], K), dtype=np.int64)
    todo = np.arange(nodes.shape[0])
    r = 1
    while _ball_offsets(ball, r).shape[0] < K:
        r += 1
    while todo.size:
        offsets = _ball_offsets(ball, r)
        cand = _neighbours(ball, nodes[todo], offsets)
        # a missing candidate sorts after every lattice point of the ball,
        # whatever unit distance its index -1 reads
        d2 = np.where(cand >= 0, np.einsum("ij,ij->i", offsets, offsets),
                      r * r + 1)
        diff = unit[cand] - unit[nodes[todo], None, :]
        # lexsort is stable and the offsets run in lattice order, so what
        # ties in both distances goes by lattice index
        order = np.lexsort((np.einsum("...i,...i->...", diff, diff), d2),
                           axis=-1)[:, :K]
        done = np.take_along_axis(d2, order[:, K - 1:], axis=1)[:, 0] <= r * r
        out[todo[done]] = np.take_along_axis(cand[done], order[done], axis=1)
        todo = todo[~done]
        r += 1
    return out


def _fit_monomials(n: int) -> np.ndarray:
    """The multi-indices of order 0, 1 and 2, the monomials of a fit."""
    return np.asarray([b for order in (0, 1, 2)
                       for b in multi_indices(n, order)])


@functools.cache
def _symmetries(n: int) -> tuple[np.ndarray, ...]:
    """The 2^n n! signed permutations of the axes, and what each does to a
    quadratic fit; constant data, built once per n, read-only.

    Element e = p * 2^n + (the sum of 2^i over the flipped axes i), p the
    index of perm[e] in itertools.permutations order, maps a lattice offset
    x to g x, (g x)_i = +-x[perm[e, i]], negative on the flipped axes i.
    Coefficients d over the monomials _fit_monomials(n) of g x are c =
    row_sign[e] * d[rows[e]] over those of x.  Returns (perm (G, n), rows
    (G, nm), row_sign (G, nm)).
    """
    mono = _fit_monomials(n)
    at = {b: k for k, b in enumerate(map(tuple, mono.tolist()))}
    perm, rows, row_sign = [], [], []
    for p in itertools.permutations(range(n)):
        for bits in range(2**n):
            s = [-1 if bits >> i & 1 else 1 for i in range(n)]
            # (g x)^gamma = prod(s^gamma) x^beta for gamma = beta[p]
            gammas = [tuple(b[d] for d in p) for b in at]
            perm.append(p)
            rows.append([at[g] for g in gammas])
            row_sign.append([math.prod(si**gi for si, gi in zip(s, g))
                             for g in gammas])
    return _read_only(np.asarray(perm), np.asarray(rows),
                      np.asarray(row_sign, float))


def _fit_classes(ball: LatticeBall, nodes: np.ndarray, nbr: np.ndarray,
                 perm: np.ndarray) -> tuple[np.ndarray, ...]:
    """The symmetry classes of the fits at nodes on the neighbours nbr.

    Each node gets the signed permutation g (an element of _symmetries) that
    flips the negative axes of p = lattice - centre and sorts the axes by
    |p|, descending and stable; its class key is the sorted integer codes
    of g (neighbour offsets).  Two nodes of a class fit the same data in
    g's frame.  Returns (first, cls, elem, rank): the position of each
    class's first node, each node's class and element, and each
    neighbour's place among its node's sorted codes.
    """
    n, res = ball.n, ball.res
    p = ball.lattice[nodes] - (res - 1) // 2
    order = np.argsort(-np.abs(p), axis=1, kind="stable")
    flip = np.take_along_axis(p, order, axis=1) < 0
    perm_index = np.argmax(np.all(order[:, None, :] == perm[None, ::2**n],
                                  axis=2), axis=1)
    elem = perm_index * 2**n + flip @ (1 << np.arange(n))
    off = ball.lattice[nbr] - ball.lattice[nodes, None, :]
    canon = np.take_along_axis(off, order[:, None, :], axis=2)
    canon *= np.where(flip, -1, 1)[:, None, :]
    codes = (canon + res - 1) @ ((2 * res - 1) ** np.arange(n - 1, -1, -1))
    col = np.argsort(codes, axis=1)
    key = np.take_along_axis(codes, col, axis=1)
    rank = np.empty_like(col)
    np.put_along_axis(rank, col, np.arange(col.shape[1]), axis=1)
    # a stable lexsort on the keys' columns, first column first, keeps the
    # nodes of a class in node order
    by_key = np.lexsort(key.T[::-1])
    new = np.ones(nodes.size, dtype=bool)
    new[1:] = np.any(key[by_key[1:]] != key[by_key[:-1]], axis=1)
    cls = np.empty(nodes.size, dtype=np.int64)
    cls[by_key] = np.cumsum(new) - 1
    return by_key[new], cls, elem, rank


def _quadratic_fits(ball: LatticeBall, starved: np.ndarray) -> list:
    """The least-squares rows of the starved (multi-index, node) pairs of
    the stencil table, starved (len(betas), N) over its multi-indices,
    which are the fit monomials of order 1 and 2 in order.

    Each node starved anywhere fits the monomials of degree <= 2 on its K
    nearest nodes, K starting at twice the monomial count and growing by
    the monomial count until the fit has full rank; row beta of the
    pseudo-inverse, times beta!, maps neighbour values to the derivative
    in lattice units.  Returns the table parts (rows, neighbours (s, K),
    weights (s, K)), one per K.

    Only the first node of each symmetry class (see _fit_classes) is
    fitted; its rows are those of a direct fit, bitwise.  The starved rows
    of the other members are taken through the symmetry, the monomial row
    by the element's row map and sign and the neighbour columns by the
    matched codes: the same least-squares solution, within rounding of a
    direct fit.  No other row of a member's pseudo-inverse is mapped.
    """
    mono = _fit_monomials(ball.n)
    axes = np.arange(ball.n)
    nm, N = mono.shape[0], ball.node_count
    perm, rows, row_sign = _symmetries(ball.n)
    fact = np.asarray([math.prod(math.factorial(k) for k in b)
                       for b in mono[1:].tolist()], dtype=float)
    nodes = np.nonzero(np.any(starved, axis=0))[0]
    K = min(N, 2 * nm)
    parts = []
    while nodes.size:
        nbr = _nearest(ball, nodes, K)
        first, cls, elem, rank = _fit_classes(ball, nodes, nbr, perm)
        rep = nodes[first]
        xi = (ball.lattice[nbr[first]]
              - ball.lattice[rep, None, :]).astype(float)
        # each xi ** e for e = 0, 1, 2 once, then picked per monomial
        powers = xi[:, :, None, :] ** np.arange(3)[:, None]
        V = np.prod(powers[:, :, mono, axes], axis=-1)
        # One SVD serves both the rank test and the pseudo-inverse, each
        # written as np.linalg.matrix_rank and np.linalg.pinv compute them.
        u, s, vt = np.linalg.svd(V, full_matrices=False)
        rank_tol = s.max(axis=-1, keepdims=True, initial=0) * (
            max(K, nm) * np.finfo(s.dtype).eps)
        full_cls = (np.count_nonzero(s > rank_tol, axis=-1) == nm) | (K >= N)
        full = full_cls[cls]
        if full.any():
            u, s, vt = u[full_cls], s[full_cls], vt[full_cls]
            large = s > 1e-15 * s.max(axis=-1, keepdims=True)
            s = np.divide(1, s, where=large, out=s)
            s[~large] = 0
            pinv = np.matmul(vt.swapaxes(-1, -2),
                             s[..., None] * u.swapaxes(-1, -2))
            # each fitted class in its canonical frame: rows by monomial of
            # g x, columns in code order (multiplying by +-1 is exact)
            e = elem[first[full_cls]]
            col = np.argsort(rank[first[full_cls]], axis=1)
            pinv = np.take_along_axis(pinv, col[:, None], axis=2)
            canon = np.empty_like(pinv)
            np.put_along_axis(canon, rows[e][..., None],
                              pinv * row_sign[e][..., None], axis=1)
            # each starved (beta, node) row in the node's own frame; the
            # factor +-beta! is +-1 or +-2, so the product is exact
            b, at = np.nonzero(starved[:, nodes[full]])
            at = np.flatnonzero(full)[at]
            e, m = elem[at], 1 + b
            w = canon[(np.cumsum(full_cls) - 1)[cls[at]], rows[e, m]]
            w = np.take_along_axis(w, rank[at], axis=1)
            w *= (row_sign[e, m] * fact[b])[:, None]
            parts.append((b * N + nodes[at], nbr[at], w))
        nodes = nodes[~full]
        K = min(N, K + nm)
    return parts


def _assemble(betas, count: int, parts) -> StencilTable:
    """The read-only table of count rows filled from parts, (rows,
    neighbours (s, k), weights (k,) or (s, k)) each."""
    width = np.zeros(count, dtype=np.int64)
    for rows, nbr, _ in parts:
        width[rows] = nbr.shape[1]
    indptr = np.concatenate(([0], np.cumsum(width)))
    index = np.empty(indptr[-1], dtype=np.int64)
    weight = np.empty(indptr[-1])
    for rows, nbr, w in parts:
        slots = indptr[rows][:, None] + np.arange(nbr.shape[1])
        index[slots] = nbr
        weight[slots] = w
    return StencilTable(betas, *_read_only(indptr, index.view(), weight),
                        index)


def stencil_table(grid: BallGrid) -> StencilTable:
    """The finite-difference table of grid's lattice ball for every
    1 <= |beta| <= 2.

    Row (beta, node) holds the first fixed stencil whose nodes all exist,
    else the node's least-squares quadratic fit; all of them reproduce
    quadratics exactly.  The table is R-free, so it is built once per
    ball, on first use, and shared read-only by the grids of every radius.
    """
    ball = grid.ball
    key = "stencil_table"
    if key in ball._shared:
        return ball._shared[key]
    n, N = ball.n, ball.node_count
    betas = tuple(multi_indices(n, 1) + multi_indices(n, 2))
    parts = []          # (rows, neighbours (s, k), weights (k,) or (s, k))
    starved = np.zeros((len(betas), N), dtype=bool)
    for b, beta in enumerate(betas):
        axes = [d for d, k in enumerate(beta) if k]
        stencils = (_MIXED if len(axes) == 2
                    else _FIRST if sum(beta) == 1 else _PURE)
        free = np.arange(N)         # the nodes no stencil so far took
        for steps, weights in stencils:
            offsets = np.zeros((len(steps), n), dtype=np.int64)
            offsets[:, axes] = steps
            nbr = _neighbours(ball, free, offsets)
            take = np.all(nbr >= 0, axis=1)
            parts.append((b * N + free[take], nbr[take], np.asarray(weights)))
            free = free[~take]
        starved[b, free] = True
    parts += _quadratic_fits(ball, starved)
    ball._shared[key] = _assemble(betas, len(betas) * N, parts)
    # the padded index map serves the lookups of the build only
    ball._shared.pop("padded_index", None)
    return ball._shared[key]


def node_values(grid: BallGrid, vals) -> np.ndarray:
    """vals as float64 node values, (N,) or (N, m); a ValueError for any
    other shape."""
    vals = np.asarray(vals, dtype=np.float64)
    if vals.shape[:1] != (grid.node_count,) or vals.ndim > 2:
        raise ValueError(f"values shape {vals.shape} does not fit "
                         f"{grid.node_count} nodes")
    return vals


def _apply_table(grid: BallGrid, vals: np.ndarray, start: int,
                 stop: int) -> np.ndarray:
    """Rows start:stop of the grid's stencil table applied to the node
    values vals, (N,) or (N, m), each divided by h^|beta| of its
    multi-index: one gather, one in-place product and one segmented sum
    over the rows' contiguous entries.  Returns (stop - start,) +
    vals.shape[1:]."""
    table = stencil_table(grid)
    N = grid.node_count
    ptr = table.indptr[start:stop + 1]
    lo, hi = ptr[0], ptr[-1]
    terms = vals.take(table._take_index[lo:hi], axis=0)
    terms *= table.weight[lo:hi].reshape((-1,) + (1,) * (vals.ndim - 1))
    out = np.add.reduceat(terms, ptr[:-1] - lo, axis=0)
    for b in range(start // N, (stop - 1) // N + 1):
        rows = slice(max(b * N, start) - start, min(b * N + N, stop) - start)
        out[rows] /= grid.h**sum(table.betas[b])
    return out


def fd_derivatives(grid: BallGrid, vals) -> np.ndarray:
    """Every finite-difference derivative of order 1 and 2 of node values,
    in one pass.

    vals has shape (N,) or (N, m); the result is (len(betas), N) +
    vals.shape[1:] for betas = multi_indices(n, 1) + multi_indices(n, 2).
    Each derivative is bitwise the one fd_values gives.
    """
    vals = node_values(grid, vals)
    N, count = grid.node_count, len(stencil_table(grid).betas)
    out = _apply_table(grid, vals, 0, count * N)
    return out.reshape((count, N) + vals.shape[1:])


def fd_values(grid: BallGrid, vals: np.ndarray, beta: tuple[int, ...],
              node: int | None = None) -> np.ndarray:
    """Finite-difference derivative of order 1 or 2 of node values.

    vals has shape (N,) or (N, m); the result has the same shape, or drops
    the node axis when node, an integer in range(N), picks the single row
    to evaluate.
    """
    beta = _canonical_beta(grid.n, beta)
    vals = node_values(grid, vals)
    N = grid.node_count
    if node is not None and (isinstance(node, bool)
                             or not isinstance(node, (int, np.integer))
                             or not 0 <= node < N):
        raise ValueError(f"node {node!r} is not a node index in range({N})")
    first, count = (0, N) if node is None else (node, 1)
    start = stencil_table(grid).betas.index(beta) * N + first
    out = _apply_table(grid, vals, start, start + count)
    return out if node is None else out[0]


# ---------------------------------------------------------------------------
# pair sampling for discrete Hölder seminorms


@dataclass(eq=False)
class UnitPairs:
    """The read-only arrays of a pair set, shared by its sets on every grid
    of the lattice ball.

    first and second hold the pairs bucket by bucket (see
    :class:`PairBuckets`), in key order inside each bucket, each oriented
    lower -> higher node id (in triu order for a complete set), so a scan of
    chosen buckets reads contiguous ranges of every pair-length array.
    offset (n, pairs) is lattice[first] - lattice[second] in a small signed
    integer type, and d2 the pairs' integer squared lattice distances in a
    small unsigned one.  No float is kept per pair: a distance at R = 1,
    or its power, is a read of the ball's table of unit_h * sqrt(k) over
    every squared distance k, at d2.  drawn counts the pairs drawn,
    repeats included.
    """

    first: np.ndarray
    second: np.ndarray
    complete: bool
    buckets: PairBuckets
    drawn: int
    offset: np.ndarray
    d2: np.ndarray
    _table: np.ndarray = field(repr=False)
    _take_ids: tuple = field(repr=False)
    _pow: dict = field(default_factory=dict, repr=False)
    _min_pow: dict = field(default_factory=dict, repr=False)

    @property
    def dist(self) -> np.ndarray:
        """The distances at R = 1, unit_h * sqrt(d2), read-only; gathered
        from the table on every read."""
        return _read_only(self._table[self.d2])[0]

    def dist_pow(self, alpha: float) -> np.ndarray:
        """dist ** alpha, read-only, gathered once from the table's powers:
        a power is a function of its operand alone, so bitwise each pair's
        own."""
        key = float(alpha)
        if key not in self._pow:
            self._pow[key] = _read_only((self._table**key)[self.d2])[0]
        return self._pow[key]

    def bucket_min_dist_pow(self, alpha: float) -> np.ndarray:
        """The least dist_pow(alpha) of each bucket: the table's power at
        the bucket's least d2, as sqrt, the scaling by unit_h and the power
        are monotone."""
        key = float(alpha)
        if key not in self._min_pow:
            self._min_pow[key] = _read_only(
                (self._table**key)[self.buckets.min_d2])[0]
        return self._min_pow[key]


@dataclass(eq=False)
class PairSet:
    """Node-index pairs of one grid, for discrete Hölder seminorms: the
    grid plus its :class:`UnitPairs`.

    Always contains every antipodal pair (x, -x) and every (node, origin)
    pair; when the grid is small enough all pairs are used, otherwise the
    remainder is drawn from a seeded generator up to the cap, and the
    distinct unordered pairs among the drawn ones are kept.
    """

    grid: BallGrid
    unit: UnitPairs

    first = _forward("unit", "first")
    second = _forward("unit", "second")
    complete = _forward("unit", "complete")
    buckets = _forward("unit", "buckets")
    drawn = _forward("unit", "drawn")

    @property
    def size(self) -> int:
        return self.first.shape[0]

    def steps(self, out: np.ndarray | None = None) -> np.ndarray:
        """Offsets x_first - x_second, (n, size) float64, one contiguous
        row per axis: h times the integer offsets, exact to one rounding;
        written into out when given."""
        return np.multiply(self.grid.h, self.unit.offset, out=out)

    def take_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """The writeable arrays behind first and second, for take indices
        only: ndarray.take copies a read-only index array on every call,
        ten times the cost of a 200k-pair gather."""
        return self.unit._take_ids


@dataclass(frozen=True)
class PairBuckets:
    """The pairs of a PairSet grouped by the lattice cubes of their nodes.

    Cube c holds the nodes node_order[cube_start[c]:cube_start[c + 1]].
    Bucket b holds the pairs whose nodes lie in the cubes cube_a[b] <=
    cube_b[b], in either orientation: the pair set stores them as the
    slice indptr[b]:indptr[b + 1], sizes[b] of them, the least squared
    lattice distance among them min_d2[b].  Every array is read-only and
    R-free.
    """

    node_order: np.ndarray
    cube_start: np.ndarray
    indptr: np.ndarray
    sizes: np.ndarray
    min_d2: np.ndarray
    cube_a: np.ndarray
    cube_b: np.ndarray
    _ends: tuple = field(repr=False)

    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The bucket ends as two take indices of length 2 * buckets,
        [cube_a, cube_b] and [cube_b, cube_a], concatenated once: the
        writeable arrays that cube_a and cube_b view (ndarray.take copies
        a read-only index array on every call)."""
        return self._ends


def _bucketed(ball: LatticeBall, first: np.ndarray, second: np.ndarray,
              complete: bool, drawn: int) -> UnitPairs:
    """The unit pairs of the int64 pairs (first, second), which it takes
    over and regroups bucket by bucket in place (so it holds no second copy
    of them) as the writeable take indices behind read-only views, drawn
    pairs in all.

    The offsets are gathered from the lattice columns straight into one
    signed row per axis that holds +-(res - 1), and d2 sums their squares
    in the least unsigned type that holds n (res - 1)^2: every step is
    exact integer arithmetic.
    """
    present, sizes = _bucket_pairs(ball, first, second)
    n, res = ball.n, ball.res
    offset = np.empty((n, first.shape[0]), dtype=np.min_scalar_type(-res))
    top = n * (res - 1)**2
    d2 = np.zeros(first.shape[0], dtype=np.min_scalar_type(top))
    square = np.empty_like(d2)
    for d, row in enumerate(offset):
        column = ball.lattice[:, d].astype(offset.dtype)
        np.subtract(column.take(first), column.take(second), out=row)
        np.abs(row, out=square, casting="unsafe")
        square *= square
        d2 += square
    del square
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    _, count, node_order, cube_start = _node_cubes(ball)
    cube_a, cube_b = np.divmod(present, count)
    ends = np.concatenate((cube_a, cube_b))
    swapped = np.concatenate((cube_b, cube_a))
    buckets = PairBuckets(node_order, cube_start, *_read_only(
        indptr, sizes, np.minimum.reduceat(d2, indptr[:-1]),
        ends[:present.size], ends[present.size:]), _ends=(ends, swapped))
    if "distances" not in ball._shared:
        table = np.sqrt(np.arange(top + 1), dtype=np.float64)
        table *= ball.unit_h
        ball._shared["distances"] = _read_only(table)[0]
    return UnitPairs(*_read_only(first.view(), second.view()), complete,
                     buckets, drawn, *_read_only(offset, d2),
                     _table=ball._shared["distances"],
                     _take_ids=(first, second))


# Cube ids then fit in uint8 and bucket keys cube_a * count + cube_b in uint16.
_MAX_CUBES = 256


def _node_cubes(ball: LatticeBall) -> tuple[np.ndarray, int, np.ndarray,
                                             np.ndarray]:
    """Each node's lattice cube, numbered 0..count-1 over the cubes that
    hold nodes, the count, and the nodes' order and starts cube by cube.
    The cube side is 4 lattice steps, or the least side giving at most
    _MAX_CUBES cubes.  Built once per ball, on first use, read-only."""
    key = "node_cubes"
    if key not in ball._shared:
        side = 4
        while True:
            cells = -(-ball.res // side)
            flat = (ball.lattice // side) @ (cells ** np.arange(ball.n - 1,
                                                                -1, -1))
            present, cube = np.unique(flat, return_inverse=True)
            if present.size <= _MAX_CUBES:
                break
            side += 1
        cube = cube.astype(np.uint8)
        count = present.size
        node_order = np.argsort(cube, kind="stable")
        cube_start = np.searchsorted(cube[node_order], np.arange(count))
        cube, node_order, cube_start = _read_only(cube, node_order,
                                                  cube_start)
        ball._shared[key] = (cube, count, node_order, cube_start)
    return ball._shared[key]


def _bucket_pairs(ball: LatticeBall, first: np.ndarray,
                  second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Regroup the pairs (first, second) bucket by bucket in place, keeping
    their order inside each; returns the keys cube_a * count + cube_b of
    the buckets present, in increasing order, and their sizes."""
    cube, count, _, _ = _node_cubes(ball)
    # uint16 keys of the unordered cube pair: a stable radix sort groups
    # the pairs by bucket and keeps their order inside each
    ca, cb = cube.take(first), cube.take(second)
    key = np.minimum(ca, cb).astype(np.uint16)
    key *= count
    key += np.maximum(ca, cb)
    del ca, cb
    order = np.argsort(key, kind="stable")
    sizes = np.bincount(key, minlength=count * count)
    del key
    first[:] = first.take(order)
    second[:] = second.take(order)
    present = np.flatnonzero(sizes)
    return present, sizes[present]


def build_pair_set(grid: BallGrid, seed: int = 0) -> PairSet:
    """The grid's pair set: every pair when there are at most PAIR_CAP,
    else the distinct pairs among the forced pairs and seeded draws up to
    PAIR_CAP.

    The node pairs, their buckets, integer offsets and squared distances
    depend on (n, res, seed) only (a complete set on no seed), so they are
    built once per lattice ball and shared by the sets of every grid on
    it, for as long as the ball lives; a set computes nothing per radius,
    and its distances at R = 1 are reads of the ball's distance table (see
    :class:`UnitPairs`).  A ValueError when the cap cannot hold the forced
    pairs (3D grids above about 100k nodes), or when seed is not an
    integral value >= 0, whether or not the set reads it.
    """
    try:
        seed = integral_value(seed)
    except ValueError as exc:
        raise ValueError(f"seed: {exc}") from None
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    N, cap = grid.node_count, PAIR_CAP
    if cap < 2 * N:
        raise ValueError(f"pair cap {cap} too small for {N} nodes")
    complete = N * (N - 1) // 2 <= cap
    key = ("pairs",) if complete else ("pairs", seed)
    shared = grid.ball._shared
    if key not in shared:
        # the draws are made in a helper, so its temporaries are freed
        # before the bucket sort allocates its own pair-length arrays
        first, second = (np.triu_indices(N, k=1) if complete
                         else _sampled_pairs(grid, seed, cap))
        shared[key] = _bucketed(grid.ball, first, second, complete,
                                first.shape[0] if complete else cap)
    return PairSet(grid, shared[key])


def _sampled_pairs(grid: BallGrid, seed: int,
                   cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct unordered pairs among cap drawn ones (the forced pairs,
    then seeded uniform draws of distinct nodes), as (lower, higher) node
    ids in increasing order of that key.

    Dropping a repeat changes no seminorm, as a max over a multiset is the
    max over its set, and both orientations of a pair give the same
    quotient and the same two-direction Taylor scan bit for bit.
    """
    shift = (grid.node_count - 1).bit_length()
    key = _drawn_keys(grid, seed, cap, shift)   # the draws are freed
    key.sort()
    keep = np.empty(key.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    key = key[keep]
    del keep
    first = np.empty(key.shape[0], dtype=np.int64)
    second = np.empty(key.shape[0], dtype=np.int64)
    np.right_shift(key, shift, out=first)
    np.bitwise_and(key, (1 << shift) - 1, out=second)
    return first, second


def _drawn_keys(grid: BallGrid, seed: int, cap: int,
                shift: int) -> np.ndarray:
    """(lower << shift) | higher for each of the cap drawn pairs: the
    forced ones, then seeded uniform draws of distinct nodes.  The keys are
    written straight into one array, uint32 while they fit (up to 65536
    nodes; it sorts twice as fast as int64), so no concatenated copy of the
    draws is made."""
    N = grid.node_count
    # forced pairs: antipodes and rays to the origin
    anti_lat = (grid.res - 1) - grid.lattice
    anti = grid.index_map[tuple(anti_lat.T)]
    idx = np.arange(N)
    mask = (anti >= 0) & (idx < anti)
    o = grid.origin_index
    not_o = idx[idx != o]
    pieces = [(idx[mask], anti[mask]),
              (not_o, np.full(not_o.shape[0], o, dtype=np.int64))]

    forced = int(sum(a.shape[0] for a, _ in pieces))
    rng = np.random.default_rng(seed)
    need = cap - forced
    got = 0
    while got < need:
        # int32 draws are the int64 stream, at half the bytes
        a = rng.integers(0, N, size=need - got + 1024, dtype=np.int32)
        b = rng.integers(0, N, size=need - got + 1024, dtype=np.int32)
        ok = a != b
        a, b = a[ok], b[ok]
        take = min(a.shape[0], need - got)
        pieces.append((a[:take], b[:take]))
        got += take
    key = np.empty(cap, dtype=np.uint32 if 2 * shift <= 32 else np.int64)
    at = 0
    for a, b in pieces:
        # node ids and keys fit the key dtype, so the casts are exact
        out = key[at:at + a.shape[0]]
        np.minimum(a, b, out=out, casting="unsafe")
        np.maximum(a, b, out=a)
        out <<= shift
        np.bitwise_or(out, a, out=out, casting="unsafe")
        at += a.shape[0]
    return key
