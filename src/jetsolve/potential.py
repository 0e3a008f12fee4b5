"""Newtonian potential on the discretized ball.

Midpoint quadrature over the node cells, with two singular-cell rules:

* value kernel: the cell containing the singularity is replaced by the ball
  of equal volume, over which the fundamental solution integrates in closed
  form;
* second-derivative kernel: the difference form

      d_ij N(f)(x) = int d_ij G(x - y) (f(y) - f(x)) dy - delta_ij f(x) / n

  makes the integrand integrable and the singular cell is dropped.

Cells straddling the sphere get a fractional weight (subsampled in-ball
volume fraction), which is the quadrature correction the clipped tensor grid
relies on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import (BallGrid, PairSet, ScalarField, build_pair_set, fd_values,
                   multi_indices)
from .holder import holder_norm, weighted_norm_values

_BLOCK_BYTES = 4e7


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


@dataclass(eq=False)
class PotentialField:
    """Potential of a source, with its Hessian when one was asked for."""

    grid: BallGrid
    values: np.ndarray                   # (N,) or (N, m)
    hess: np.ndarray | None = None       # (N, n, n) or (N, n, n, m)


def quad_weights(grid: BallGrid) -> np.ndarray:
    """Per-node quadrature weights with a boundary-layer correction.

    Interior cells keep the full h^n weight.  Cells straddling the sphere are
    first clipped to their subsampled in-ball volume fraction, then the whole
    boundary layer is rescaled so the weights sum to |B_R| exactly: lattice
    cells whose center falls outside the ball carry no node, and their in-ball
    volume has to be charged to the neighboring boundary cells or the
    potential develops an O(h) deficit near the sphere.
    """
    key = "quad_weights"
    if key in grid._cache:
        return grid._cache[key]
    n, h, R = grid.n, grid.h, grid.R
    w = np.full(grid.node_count, grid.cell_volume)
    circum = 0.5 * h * math.sqrt(n)
    radius = np.sqrt(np.einsum("ij,ij->i", grid.nodes, grid.nodes))
    straddle = radius + circum > R
    if straddle.any():
        sub = 9 if n == 2 else 7
        offs = (np.arange(sub) + 0.5) / sub - 0.5
        corners = np.asarray(list(itertools.product(offs, repeat=n))) * h
        pts = grid.nodes[straddle][:, None, :] + corners[None, :, :]
        inside = np.einsum("ijk,ijk->ij", pts, pts) <= R * R
        frac = inside.mean(axis=1)
        w[straddle] = frac * grid.cell_volume
        ball_volume = KernelSpec(n).unit_ball_volume * R**n
        missing = ball_volume - w.sum()
        w[straddle] += missing * w[straddle] / w[straddle].sum()
    grid._cache[key] = w
    return w


def self_cell_integrals(grid: BallGrid, kernel: KernelSpec) -> np.ndarray:
    """Closed-form integral of the kernel over each node's equal-volume ball."""
    key = "self_cell"
    if key in grid._cache:
        return grid._cache[key]
    w = quad_weights(grid)
    out = np.zeros_like(w)
    pos = w > 0
    r_eq = (w[pos] / kernel.unit_ball_volume) ** (1.0 / grid.n)
    out[pos] = kernel.ball_integral(r_eq)
    grid._cache[key] = out
    return out


def _apply_potential(grid: BallGrid, source: np.ndarray,
                     hess: bool = False) -> PotentialField:
    """The one dense pass: N(f) of an (N,) or (N, m) source, and its Hessian.

    Values come out shaped like the source; the Hessian, computed only when
    asked, is (N, n, n) or (N, n, n, m).
    """
    n = grid.n
    N = grid.node_count
    kernel = KernelSpec(n)
    F = source.reshape(N, -1)
    m = F.shape[1]
    w = quad_weights(grid)
    self_int = self_cell_integrals(grid, kernel)
    nodes = grid.nodes
    n_omega = n * kernel.unit_ball_volume

    value = np.zeros((N, m))
    second = np.zeros((N, n, n, m)) if hess else None

    block = max(16, int(_BLOCK_BYTES / (N * n * 8)))
    for a in range(0, N, block):
        b = min(a + block, N)
        ids = np.arange(a, b)
        Z = nodes[a:b, None, :] - nodes[None, :, :]
        r2 = np.einsum("bqi,bqi->bq", Z, Z)
        self_mask = np.zeros(r2.shape, dtype=bool)
        self_mask[ids - a, ids] = True
        r2s = np.where(self_mask, 1.0, r2)

        if n == 2:
            K = -np.log(r2s) / (4.0 * math.pi)
        else:
            c = 1.0 / (n * (n - 2) * kernel.unit_ball_volume)
            K = c * r2s ** ((2.0 - n) / 2.0)
        K = K * w[None, :]
        K[ids - a, ids] = self_int[ids]
        value[a:b] = K @ F

        if hess:
            # common factor w / (n omega_n r^n), zeroed on the self cell
            C = w[None, :] * r2s ** (-n / 2.0) / n_omega
            C[self_mask] = 0.0
            F_here = F[a:b]
            for i in range(n):
                for j in range(i, n):
                    H = (n * Z[:, :, i] * Z[:, :, j] / r2s
                         - (1.0 if i == j else 0.0)) * C
                    row_sums = H.sum(axis=1)
                    vals = H @ F - F_here * row_sums[:, None]
                    second[a:b, i, j] = vals
                    if i != j:
                        second[a:b, j, i] = vals

    if hess:
        for d in range(n):
            second[:, d, d] -= F / n
        second = second.reshape((N, n, n) + source.shape[1:])
    return PotentialField(grid, value.reshape(source.shape), hess=second)


def _source_values(f, grid: BallGrid | None) -> tuple[BallGrid, np.ndarray]:
    if isinstance(f, ScalarField):
        if grid is not None and grid is not f.grid:
            raise ValueError("field grid and explicit grid disagree")
        return f.grid, f.values
    if grid is None:
        raise ValueError("grid required when f is a raw array")
    return grid, np.asarray(f, dtype=np.float64)


def newtonian_potential(f, grid: BallGrid | None = None) -> PotentialField:
    """Potential N(f) with laplace(N(f)) = -f, values only."""
    return _apply_potential(*_source_values(f, grid))


def potential_hessian(f, grid: BallGrid | None = None) -> PotentialField:
    """Potential with its second derivative fields.

    Second derivatives use the difference form of the singular integral, so
    the diagonal sum equals -f identically (the kernel is traceless).
    """
    return _apply_potential(*_source_values(f, grid), hess=True)


def laplacian_consistency(f, grid: BallGrid | None = None) -> dict:
    """Two independent routes to the potential's Laplacian, compared.

    The trace route sums the kernel-formula second derivatives (identically
    -f, the kernel being traceless plus the delta term); the stencil route
    applies finite differences to the potential values.  Both are compared
    with -f on interior nodes, relative to sup |f|.
    """
    grid, vals = _source_values(f, grid)
    return _laplacian_gaps(_apply_potential(grid, vals, hess=True), vals)


def _laplacian_gaps(pf: PotentialField, vals: np.ndarray) -> dict:
    """The gaps of :func:`laplacian_consistency` for a potential already
    computed with its Hessian from the source values ``vals``."""
    grid = pf.grid
    trace = np.trace(pf.hess, axis1=1, axis2=2)
    fd_lap = sum(fd_values(grid, pf.values, beta)
                 for beta in multi_indices(grid.n, 2) if max(beta) == 2)

    mask = grid.interior_mask
    scale = max(float(np.abs(vals).max()), 1e-300)
    trace_gap = float(np.abs(trace + vals)[mask].max()) / scale
    fd_gap = float(np.abs(fd_lap + vals)[mask].max()) / scale
    route_gap = float(np.abs(trace - fd_lap)[mask].max()) / scale
    return {
        "trace_gap": trace_gap,
        "fd_gap": fd_gap,
        "route_gap": route_gap,
        "max_relative_gap": max(trace_gap, fd_gap, route_gap),
    }


@dataclass(frozen=True)
class NormRatioReport:
    """Measured ||N(f)||-order-2 / ||f||_a for each probe field."""

    ratios: dict
    max_ratio: float


def check_potential_norm_bound(samples, grid: BallGrid, alpha: float,
                               pairs: PairSet | None = None) -> NormRatioReport:
    """Order-2 jet norm of N(f) against the weighted norm of f, per probe.

    The ratio is the empirical stand-in for the R-independent bound on the
    potential as a map into the order-2 space; probes with vanishing norm are
    skipped.  The remaining probes go through one stacked Hessian pass.
    """
    if pairs is None:
        pairs = build_pair_set(grid)
    names, columns, dens = [], [], []
    for k, probe in enumerate(samples):
        f = probe.field(grid) if hasattr(probe, "field") else probe
        den = holder_norm(f, alpha, pairs).weighted
        if den < 1e-14:
            continue
        names.append(getattr(probe, "name", f"probe_{k}"))
        columns.append(f.values)
        dens.append(den)
    if not names:
        raise ValueError("all probes had vanishing norm")
    hess = potential_hessian(np.stack(columns, axis=1), grid).hess
    ratios = {}
    for k, name in enumerate(names):
        num = max(weighted_norm_values(hess[:, i, j, k], alpha, pairs)[2]
                  for i in range(grid.n) for j in range(i, grid.n))
        ratios[name] = num / dens[k]
    return NormRatioReport(ratios=ratios, max_ratio=max(ratios.values()))
