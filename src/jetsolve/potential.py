"""Newtonian potential on the discretized ball.

Midpoint quadrature over the node cells, with two singular-cell rules:

* value kernel: the cell containing the singularity is replaced by the ball
  of equal volume, over which the fundamental solution integrates in closed
  form; the kernel's self cell is zero and that integral times f is added
  after the convolution;
* second-derivative kernel: the difference form

      d_ij N(f)(x) = int d_ij G(x - y) (f(y) - f(x)) dy - delta_ij f(x) / n

  makes the integrand integrable and the singular cell is dropped: with
  H_ij = d_ij G zeroed there, the sum is conv(H_ij, w f) - f conv(H_ij, w),
  the second term computed once per lattice ball.

Cells straddling the sphere get a fractional weight (subsampled in-ball
volume fraction), which is the quadrature correction the clipped tensor grid
relies on; the subsamples are counted from their squared coordinates per
axis, never built as points.  All nodes sit on one lattice, so each sum is
an FFT convolution on the res^n box zero-padded per axis to the next
5-smooth length L >= 2 res - 1: no offsets wrap, so it is the free-space
sum, in O(N log N).  The source fills only res of the L entries per axis
and only those are read back, so the transforms go axis by axis and skip
the lines that are all zero on the way in and unread on the way out (FFT
pruning, Markel 1971), with the same result as the whole-box transform,
bit for bit.

The potential scales exactly with the ball, so the quadrature and kernel
spectra are built once per lattice ball, at R = 1, and rescaled per radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (BallGrid, LatticeBall, PairSet, _read_only, fd_values,
                   multi_indices, node_values)
from .holder import max_weighted_norm, weighted_norm_values


@dataclass(frozen=True)
class KernelSpec:
    """Fundamental solution of the Laplacian in dimension n."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")

    @property
    def unit_ball_volume(self) -> float:
        return math.pi ** (self.n / 2.0) / math.gamma(self.n / 2.0 + 1.0)

    def ball_integral(self, r):
        """Integral of the fundamental solution over B_r (closed form),
        elementwise over an array of radii."""
        r = np.asarray(r, dtype=np.float64)
        if self.n == 2:
            return r * r * (1.0 - 2.0 * np.log(r)) / 4.0
        return r * r / (2.0 * (self.n - 2))


def uniform_ball_potential(n: int, R: float, x):
    """Newtonian potential of f = 1 on B_R, evaluated at the points x.

    x is one point (n,), giving a float, or a batch (..., n), giving an
    array (...).  Closed forms (u solves laplace(u) = -1, radially
    symmetric, with the additive constant fixed by integrating the
    fundamental solution over B_R at the origin):

        n = 3:  u(x) = R^2/2 - |x|^2/6
        n = 2:  u(x) = R^2 (1 - 2 ln R)/4 - |x|^2/4
    """
    x = np.asarray(x, dtype=np.float64)
    r2 = np.einsum("...i,...i->...", x, x)
    if n == 3:
        u = R * R / 2.0 - r2 / 6.0
    elif n == 2:
        u = R * R * (1.0 - 2.0 * math.log(R)) / 4.0 - r2 / 4.0
    else:
        raise ValueError(f"n must be 2 or 3, got {n}")
    return float(u) if x.ndim == 1 else u


@dataclass(eq=False)
class PotentialField:
    """Potential of a source, with its Hessian when one was asked for; a
    Hessian-only pass leaves values None."""

    grid: BallGrid
    values: np.ndarray | None            # (N,) or (N, m)
    hess: np.ndarray | None = None       # (N, n, n) or (N, n, n, m)


def _unit_quadrature(ball: LatticeBall) -> tuple[np.ndarray, np.ndarray]:
    """The quadrature weights and self-cell integrals (the kernel over each
    node's ball of equal volume) at R = 1, built once per ball, read-only.

    Interior cells keep the full h^n weight.  Cells straddling the sphere are
    first clipped to their subsampled in-ball volume fraction, then the whole
    boundary layer is rescaled so the weights sum to |B_1| exactly: lattice
    cells whose center falls outside the ball carry no node, and their in-ball
    volume has to be charged to the neighboring boundary cells or the
    potential develops an O(h) deficit near the sphere.
    """
    key = "quadrature"
    if key not in ball._shared:
        n, h, nodes = ball.n, ball.unit_h, ball.unit_nodes
        kernel = KernelSpec(n)
        w = np.full(ball.node_count, h**n)
        circum = 0.5 * h * math.sqrt(n)
        radius = np.sqrt(np.einsum("ij,ij->i", nodes, nodes))
        straddle = radius + circum > 1.0
        if straddle.any():
            sub = 9 if n == 2 else 7
            offs = ((np.arange(sub) + 0.5) / sub - 0.5) * h
            # (straddle, n, sub): the squared coordinates of each straddling
            # cell's subsamples per axis, summed over the sub^n subsamples
            # in the order the point cloud's einsum took, x^2 + y^2 in 2D
            # and (x^2 + z^2) + y^2 in 3D, so each count is bitwise its own
            sq = (nodes[straddle][:, :, None] + offs) ** 2
            if n == 2:
                r2 = sq[:, 0, :, None] + sq[:, 1, None, :]
            else:
                xz = sq[:, 0, :, None] + sq[:, 2, None, :]
                r2 = xz[:, :, None, :] + sq[:, 1, None, :, None]
            inside = np.count_nonzero((r2 <= 1.0).reshape(r2.shape[0], -1),
                                      axis=1)
            w[straddle] = inside / sub**n * h**n
            missing = kernel.unit_ball_volume - w.sum()
            w[straddle] += missing * w[straddle] / w[straddle].sum()
        # every weight is positive: the subsamples hold the cell's centre
        r_eq = (w / kernel.unit_ball_volume) ** (1.0 / n)
        ball._shared[key] = _read_only(w, kernel.ball_integral(r_eq))
    return ball._shared[key]


def quad_weights(grid: BallGrid) -> np.ndarray:
    """Per-node quadrature weights with a boundary-layer correction: R^n
    times those at R = 1, so a rim cell's in-ball fraction is R-free."""
    return grid.R**grid.n * _unit_quadrature(grid.ball)[0]


def _fft_length(k: int) -> int:
    """Smallest 5-smooth integer >= k, a length the FFT handles fast."""
    m = k
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return k if m == 1 else _fft_length(k + 1)


def _cut(a: np.ndarray, axis: int, size: int) -> np.ndarray:
    """The first size entries of a along the negative axis."""
    return a[(slice(None),) * (a.ndim + axis) + (slice(size),)]


def _convolve(ball: LatticeBall, spectra: np.ndarray, source: np.ndarray):
    """Free-space convolution of each kernel with an (N, m) node source
    through the zero-padded lattice box; (kernels, m, N) at the nodes.

    The source fills the first res entries of each padded axis and only
    those are read back, so the transforms go axis by axis over the lines
    that are not all zero or are read (FFT pruning): an rfft of the last
    axis padded to L, ffts of the axes n - 1 down to 1, the product with
    the spectra, then iffts of the axes 1 to n - 1 and an irfft of the last
    axis, each cut to res once it is transformed.  The axes run in
    np.fft.rfftn's and irfftn's order, so every line sees the same data and
    the result is bitwise the whole-box transform's.
    """
    n, res, L = ball.n, ball.res, spectra.shape[1]
    at_nodes = (slice(None),) + tuple(ball.lattice.T)
    box = np.zeros((source.shape[1],) + (res,) * n)
    box[at_nodes] = source.T
    spec = np.fft.rfft(box, L, axis=-1)
    for axis in range(-2, -n - 1, -1):
        spec = np.fft.fft(spec, L, axis=axis)
    out = spectra[:, None] * spec
    for axis in range(-n, -1):
        out = _cut(np.fft.ifft(out, axis=axis), axis, res)
    out = _cut(np.fft.irfft(out, L, axis=-1), -1, res)
    return out[(slice(None),) + at_nodes]


def _kernel_spectra(ball: LatticeBall, hess: bool):
    """Kernel spectra on the padded offset lattice at R = 1, self cell
    zeroed, built once per ball: the value kernel, then with hess H_ij =
    d_ij G for i <= j and the source-free sums conv(H_ij, w) at the nodes,
    (pairs, N)."""
    cached = ball._shared.get("potential_spectra")
    if cached is not None and (cached[1] is not None or not hess):
        return cached
    n, kernel, L = ball.n, KernelSpec(ball.n), _fft_length(2 * ball.res - 1)
    k = np.arange(L)
    Z = np.ix_(*[np.where(k <= L // 2, k, k - L) * ball.unit_h] * n)
    r2 = sum(z * z for z in Z)
    r2[(0,) * n] = 1.0
    kernels = [-np.log(r2) / (4.0 * math.pi) if n == 2 else
               r2 ** ((2.0 - n) / 2.0) / (n * (n - 2) * kernel.unit_ball_volume)]
    if hess:
        C = r2 ** (-n / 2.0) / (n * kernel.unit_ball_volume)
        kernels += [(n * Z[i] * Z[j] / r2 - (1.0 if i == j else 0.0)) * C
                    for i, j in zip(*np.triu_indices(n))]
    kernels = np.stack(kernels)
    kernels[(slice(None),) + (0,) * n] = 0.0
    # each kernel is even in the offset, so its spectrum is real
    spectra = np.fft.rfftn(kernels, axes=tuple(range(1, n + 1))).real
    row_sums = (_convolve(ball, spectra[1:],
                          _unit_quadrature(ball)[0][:, None])[:, 0]
                if hess else None)
    ball._shared["potential_spectra"] = (spectra, row_sums)
    return spectra, row_sums


def _apply_potential(grid: BallGrid, source: np.ndarray, hess: bool = False,
                     value: bool = True) -> PotentialField:
    """One FFT pass on the ball at R = 1: N(f) of an (N,) or (N, m) source,
    shaped like it, and when asked its Hessian, (N, n, n) or (N, n, n, m).
    The Hessian is R-free and the value scales as R^2, less in 2D the log
    kernel's and self cells' shift R^2 log(R) / (2 pi) per unit weight.

    With value False the pass convolves the Hessian kernels alone and the
    field's values are None.  Each kernel's lines are transformed on their
    own, so the Hessian is bitwise that of a pass with the value kernel.
    """
    ball, R = grid.ball, grid.R
    n, N = ball.n, ball.node_count
    F = source.reshape(N, -1)
    spectra, row_sums = _kernel_spectra(ball, hess)
    w, self_cell = _unit_quadrature(ball)
    wF = w[:, None] * F
    conv = _convolve(ball, spectra[(0 if value else 1):(None if hess else 1)],
                     wF)
    values = second = None
    if value:
        values = conv[0].T + self_cell[:, None] * F
        values *= R * R
        if n == 2 and R != 1.0:
            values -= R * R * math.log(R) / (2.0 * math.pi) * wF.sum(axis=0)
        values = values.reshape(source.shape)
        conv = conv[1:]
    if hess:
        I, J = np.triu_indices(n)
        vals = np.moveaxis(conv - row_sums[:, None] * F.T, -1, 0)
        vals[:, I == J] -= F[:, None] / n
        second = np.empty((N, n, n, F.shape[1]))
        second[:, I, J] = second[:, J, I] = vals
        second = second.reshape((N, n, n) + source.shape[1:])
    return PotentialField(grid, values, hess=second)


def newtonian_potential(values: np.ndarray, grid: BallGrid) -> PotentialField:
    """Potential N(f) with laplace(N(f)) = -f of (N,) or (N, m) node
    values, values only."""
    return _apply_potential(grid, node_values(grid, values))


def potential_hessian(values: np.ndarray, grid: BallGrid) -> PotentialField:
    """Potential with its second derivative fields.

    Second derivatives use the difference form of the singular integral, so
    the diagonal sum equals -f identically (the kernel is traceless).
    """
    return _apply_potential(grid, node_values(grid, values), hess=True)


def laplacian_consistency(pf: PotentialField, values: np.ndarray) -> dict:
    """Two independent routes to the Laplacian of a potential, compared.

    pf is the potential, with its Hessian, of the source values (N,).  The
    trace route sums the kernel-formula second derivatives (identically
    -f, the kernel being traceless plus the delta term); the stencil route
    applies finite differences to the potential values.  Both are compared
    with -f on interior nodes, relative to sup |f|.
    """
    grid = pf.grid
    trace = np.trace(pf.hess, axis1=1, axis2=2)
    fd_lap = sum(fd_values(grid, pf.values, beta)
                 for beta in multi_indices(grid.n, 2) if max(beta) == 2)

    mask = grid.interior_mask
    scale = max(float(np.abs(values).max()), 1e-300)
    trace_gap = float(np.abs(trace + values)[mask].max()) / scale
    fd_gap = float(np.abs(fd_lap + values)[mask].max()) / scale
    route_gap = float(np.abs(trace - fd_lap)[mask].max()) / scale
    return {
        "trace_gap": trace_gap,
        "fd_gap": fd_gap,
        "route_gap": route_gap,
        "max_relative_gap": max(trace_gap, fd_gap, route_gap),
    }


def check_potential_norm_bound(probes, alpha: float,
                               pairs: PairSet) -> dict[str, float]:
    """Order-2 jet norm of N(f) against the weighted norm of f, per probe,
    on pairs.grid: the ratios by probe name.

    The ratio is the empirical stand-in for the R-independent bound on the
    potential as a map into the order-2 space; probes with vanishing norm are
    skipped.  The remaining probes go through one stacked Hessian pass.
    """
    fields = np.stack([probe.values(pairs.grid) for probe in probes], axis=1)
    return _norm_ratios([probe.name for probe in probes], fields,
                        weighted_norm_values(fields, alpha, pairs)[2], alpha,
                        pairs)


def _norm_ratios(names, fields: np.ndarray, norms: np.ndarray, alpha: float,
                 pairs: PairSet) -> dict[str, float]:
    """:func:`check_potential_norm_bound` of the sources named names, from
    their values (N, p) and their weighted norms (p,), already measured."""
    keep = np.flatnonzero(~(norms < 1e-14))
    if not keep.size:
        raise ValueError("all probes had vanishing norm")
    hess = _apply_potential(pairs.grid, fields[:, keep], hess=True,
                            value=False).hess
    ratios = {}
    upper = np.triu_indices(pairs.grid.n)
    for col, k in enumerate(keep):
        num = max_weighted_norm(hess[:, upper[0], upper[1], col], alpha, pairs)
        ratios[names[k]] = num / float(norms[k])
    return ratios
