"""Newtonian potential on the discretized ball.

Midpoint quadrature over the node cells, with three singular-cell rules:

* value kernel: the cell containing the singularity is replaced by the ball
  of equal volume, over which the fundamental solution integrates in closed
  form;
* gradient kernel: the singular cell is dropped (odd kernel, centered cell);
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

    def ball_integral(self, r: float) -> float:
        """Integral of the fundamental solution over B_r (closed form)."""
        if self.n == 2:
            return r * r * (1.0 - 2.0 * math.log(r)) / 4.0
        return r * r / (2.0 * (self.n - 2))


@dataclass(eq=False)
class PotentialField:
    """Potential of one source field with optional derivative fields."""

    grid: BallGrid
    values: np.ndarray
    grad: np.ndarray | None = None       # (N, n)
    hess: np.ndarray | None = None       # (N, n, n)


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
    r_eq = (np.maximum(w, 1e-300) / kernel.unit_ball_volume) ** (1.0 / grid.n)
    out = np.asarray([kernel.ball_integral(float(r)) if wi > 0 else 0.0
                      for r, wi in zip(r_eq, w)])
    grid._cache[key] = out
    return out


def _apply_potential(grid: BallGrid, source: np.ndarray,
                     want_value: bool = True, want_grad: bool = False,
                     want_hess: bool = False) -> dict:
    """Shared block engine: potential, gradient, Hessian for (N, m) sources."""
    n = grid.n
    N = grid.node_count
    kernel = KernelSpec(n)
    squeeze = source.ndim == 1
    F = source[:, None] if squeeze else source
    m = F.shape[1]
    w = quad_weights(grid)
    self_int = self_cell_integrals(grid, kernel)
    nodes = grid.nodes
    n_omega = n * kernel.unit_ball_volume

    out = {}
    if want_value:
        out["value"] = np.zeros((N, m))
    if want_grad:
        out["grad"] = np.zeros((N, n, m))
    if want_hess:
        out["hess"] = np.zeros((N, n, n, m))

    block = max(16, int(_BLOCK_BYTES / (N * n * 8)))
    for a in range(0, N, block):
        b = min(a + block, N)
        ids = np.arange(a, b)
        Z = nodes[a:b, None, :] - nodes[None, :, :]
        r2 = np.einsum("bqi,bqi->bq", Z, Z)
        self_mask = np.zeros(r2.shape, dtype=bool)
        self_mask[ids - a, ids] = True
        r2s = np.where(self_mask, 1.0, r2)

        if want_value:
            if n == 2:
                K = -np.log(r2s) / (4.0 * math.pi)
            else:
                c = 1.0 / (n * (n - 2) * kernel.unit_ball_volume)
                K = c * r2s ** ((2.0 - n) / 2.0)
            K = K * w[None, :]
            K[ids - a, ids] = self_int[ids]
            out["value"][a:b] = K @ F

        if want_grad or want_hess:
            # common factor w / (n omega_n r^n), zeroed on the self cell
            C = w[None, :] * r2s ** (-n / 2.0) / n_omega
            C[self_mask] = 0.0

        if want_grad:
            for d in range(n):
                out["grad"][a:b, d] = (-Z[:, :, d] * C) @ F

        if want_hess:
            F_here = F[a:b]
            for i in range(n):
                for j in range(i, n):
                    H = (n * Z[:, :, i] * Z[:, :, j] / r2s
                         - (1.0 if i == j else 0.0)) * C
                    row_sums = H.sum(axis=1)
                    vals = H @ F - F_here * row_sums[:, None]
                    out["hess"][a:b, i, j] = vals
                    if i != j:
                        out["hess"][a:b, j, i] = vals

    if want_hess:
        for d in range(n):
            out["hess"][:, d, d] -= F / n

    if squeeze:
        for k in list(out):
            out[k] = out[k][..., 0]
    return out


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
    grid, vals = _source_values(f, grid)
    res = _apply_potential(grid, vals, want_value=True)
    return PotentialField(grid, res["value"])


def potential_gradient(f, grid: BallGrid | None = None) -> PotentialField:
    grid, vals = _source_values(f, grid)
    res = _apply_potential(grid, vals, want_value=True, want_grad=True)
    return PotentialField(grid, res["value"], grad=res["grad"])


def potential_hessian(f, grid: BallGrid | None = None) -> PotentialField:
    """Potential with first and second derivative fields.

    Second derivatives use the difference form of the singular integral, so
    the diagonal sum equals -f identically (the kernel is traceless).
    """
    grid, vals = _source_values(f, grid)
    res = _apply_potential(grid, vals, want_value=True, want_grad=True,
                           want_hess=True)
    return PotentialField(grid, res["value"], grad=res["grad"],
                          hess=res["hess"])


def laplacian_consistency(f, grid: BallGrid | None = None) -> dict:
    """Two independent routes to the potential's Laplacian, compared.

    The trace route sums the kernel-formula second derivatives (identically
    -f, the kernel being traceless plus the delta term); the stencil route
    applies finite differences to the potential values.  Both are compared
    with -f on interior nodes, relative to sup |f|.
    """
    grid, vals = _source_values(f, grid)
    res = _apply_potential(grid, vals, want_value=True, want_hess=True)
    if vals.ndim == 1:
        trace = np.einsum("nii->n", res["hess"])
    else:
        trace = np.einsum("niim->nm", res["hess"])
    fd_lap = sum(fd_values(grid, res["value"], beta)
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
    skipped.
    """
    if pairs is None:
        pairs = build_pair_set(grid)
    ratios = {}
    for k, probe in enumerate(samples):
        f = probe.field(grid) if hasattr(probe, "field") else probe
        name = getattr(probe, "name", f"probe_{k}")
        den = holder_norm(f, alpha, pairs).weighted
        if den < 1e-14:
            continue
        pf = potential_hessian(f)
        num = 0.0
        for beta in multi_indices(grid.n, 2):
            i = beta.index(max(beta))
            j = i if max(beta) == 2 else [d for d, v in enumerate(beta) if v][1]
            _, _, weighted = weighted_norm_values(pf.hess[:, i, j], alpha, pairs)
            num = max(num, weighted)
        ratios[name] = num / den
    if not ratios:
        raise ValueError("all probes had vanishing norm")
    return NormRatioReport(ratios=ratios, max_ratio=max(ratios.values()))
