"""Independent reference computations used to certify the main operators.

The finite-difference references rebuild their own neighbor tables from
raw coordinates, and the closed forms below were derived by hand and are
re-checked symbolically in the test suite.  The one shared piece is the
potential's quadrature: ``potential_reference`` takes ``quad_weights`` and
``self_cell_integrals`` from the potential module on purpose, because it
checks the FFT convolution of that module, not its quadrature rule (the
closed-form ``uniform_ball_potential`` checks the rule).
"""

from __future__ import annotations

import math

import numpy as np

from .grid import BallGrid, ScalarField
from .potential import (KernelSpec, PotentialField, quad_weights,
                        self_cell_integrals)

_BLOCK_BYTES = 4e7


def uniform_ball_potential(n: int, R: float, x) -> float:
    """Newtonian potential of f = 1 on B_R, evaluated at x.

    Closed forms (u solves laplace(u) = -1, radially symmetric, with the
    additive constant fixed by integrating the fundamental solution over
    B_R at the origin):

        n = 3:  u(x) = R^2/2 - |x|^2/6
        n = 2:  u(x) = R^2 (1 - 2 ln R)/4 - |x|^2/4
    """
    x = np.asarray(x, dtype=np.float64)
    r2 = float(np.dot(x, x))
    if n == 3:
        return R * R / 2.0 - r2 / 6.0
    if n == 2:
        return R * R * (1.0 - 2.0 * math.log(R)) / 4.0 - r2 / 4.0
    raise ValueError(f"n must be 2 or 3, got {n}")


def exhaustive_holder(f_1d_section, alpha: float, resolution: int,
                      halfwidth: float = 1.0) -> float:
    """Brute-force Hölder seminorm of a 1-D section by a full pair scan.

    f_1d_section is a callable on [-halfwidth, halfwidth]; every pair of the
    dense sample is inspected, so this is O(resolution^2) and meant only to
    certify the pair-sampled seminorm on separable test functions.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    t = np.linspace(-halfwidth, halfwidth, resolution)
    v = np.asarray([f_1d_section(ti) for ti in t], dtype=np.float64)
    best = 0.0
    for i in range(resolution - 1):
        dt = t[i + 1:] - t[i]
        q = np.abs(v[i + 1:] - v[i]) / dt**alpha
        m = float(q.max())
        if m > best:
            best = m
    return best


def fd_laplacian_reference(field: ScalarField) -> ScalarField:
    """Plain 2nd-order central Laplacian, coded independently of grid stencils.

    The neighbor table is rebuilt here from raw node coordinates.  Values are
    only meaningful where the full central stencil exists (all interior nodes
    qualify); other nodes are set to zero.
    """
    grid = field.grid
    nodes = grid.nodes
    h = grid.h
    lat = np.rint((nodes + grid.R) / h).astype(np.int64)
    table = {tuple(row): k for k, row in enumerate(lat)}
    out = np.zeros(grid.node_count)
    f = field.values
    for k in range(grid.node_count):
        acc = 0.0
        ok = True
        base = lat[k]
        for d in range(grid.n):
            up = list(base)
            dn = list(base)
            up[d] += 1
            dn[d] -= 1
            iu = table.get(tuple(up))
            idn = table.get(tuple(dn))
            if iu is None or idn is None:
                ok = False
                break
            acc += f[iu] + f[idn]
        if ok:
            out[k] = (acc - 2 * grid.n * f[k]) / (h * h)
    return ScalarField(grid, out)


def fd_values_reference(grid: BallGrid, vals, beta) -> np.ndarray:
    """Finite-difference derivative computed route by route, node by node.

    Independent of the grid's stencil table: the neighbor lookup is rebuilt
    from raw node coordinates, each stencil is written out as a formula, and
    each stencil-starved node gets its own least-squares quadratic fit on
    the K nearest nodes (distance, then lattice index) found by sorting all
    nodes.  Meant for small grids; the fits cost O(N log N) per node.
    """
    nodes, h, n, N = grid.nodes, grid.h, grid.n, grid.node_count
    f = np.asarray(vals, dtype=np.float64)
    lat = np.rint((nodes + grid.R) / h).astype(np.int64)
    cube = np.full((grid.res,) * n, -1, dtype=np.int64)
    cube[tuple(lat.T)] = np.arange(N)

    def at(*steps):
        shifted = lat.copy()
        for d, k in steps:
            shifted[:, d] += k
        ok = np.all((shifted >= 0) & (shifted < grid.res), axis=1)
        out = np.full(N, -1, dtype=np.int64)
        out[ok] = cube[tuple(shifted[ok].T)]
        return out

    beta = tuple(int(b) for b in beta)
    out = np.full(N, np.nan)
    if sum(beta) == 1:
        d = beta.index(1)
        p1, m1, p2, m2 = at((d, 1)), at((d, -1)), at((d, 2)), at((d, -2))
        cen = (p1 >= 0) & (m1 >= 0)
        fwd = ~cen & (p1 >= 0) & (p2 >= 0)
        bwd = ~cen & ~fwd & (m1 >= 0) & (m2 >= 0)
        out[cen] = (f[p1[cen]] - f[m1[cen]]) / (2 * h)
        out[fwd] = (-3 * f[fwd] + 4 * f[p1[fwd]] - f[p2[fwd]]) / (2 * h)
        out[bwd] = (3 * f[bwd] - 4 * f[m1[bwd]] + f[m2[bwd]]) / (2 * h)
    elif 2 in beta:
        d = beta.index(2)
        p = [at((d, k)) for k in (1, 2, 3)]
        m = [at((d, -k)) for k in (1, 2, 3)]
        cen = (p[0] >= 0) & (m[0] >= 0)
        fwd = ~cen & np.all([q >= 0 for q in p], axis=0)
        bwd = ~cen & ~fwd & np.all([q >= 0 for q in m], axis=0)
        out[cen] = (f[p[0][cen]] - 2 * f[cen] + f[m[0][cen]]) / h**2
        for mask, q in ((fwd, p), (bwd, m)):
            out[mask] = (2 * f[mask] - 5 * f[q[0][mask]] + 4 * f[q[1][mask]]
                         - f[q[2][mask]]) / h**2
    else:
        i, j = [k for k, b in enumerate(beta) if b == 1]
        pp, pm = at((i, 1), (j, 1)), at((i, 1), (j, -1))
        mp, mm = at((i, -1), (j, 1)), at((i, -1), (j, -1))
        full = (pp >= 0) & (pm >= 0) & (mp >= 0) & (mm >= 0)
        out[full] = (f[pp[full]] - f[pm[full]] - f[mp[full]]
                     + f[mm[full]]) / (4 * h**2)

    mono = [(0,) * n]
    for d in range(n):
        mono.append(tuple(1 if k == d else 0 for k in range(n)))
    for i in range(n):
        for j in range(i, n):
            mono.append(tuple((k == i) + (k == j) for k in range(n)))
    nm = len(mono)
    fact = math.prod(math.factorial(b) for b in beta)
    for node in np.nonzero(np.isnan(out))[0]:
        d2 = np.einsum("ij,ij->i", nodes - nodes[node], nodes - nodes[node])
        order = np.lexsort(tuple(lat[:, d] for d in range(n - 1, -1, -1))
                           + (d2,))
        K = min(N, 2 * nm)
        while True:
            xi = (nodes[order[:K]] - nodes[node]) / h
            V = np.column_stack([np.prod(xi**np.asarray(e), axis=1)
                                 for e in mono])
            if np.linalg.matrix_rank(V) == nm or K >= N:
                break
            K = min(N, K + nm)
        coef = np.linalg.pinv(V) @ f[order[:K]]
        out[node] = coef[mono.index(beta)] * fact / h**sum(beta)
    return out


def source_term_reference(system, state) -> np.ndarray:
    """Source term -psi - sum_ij b^ij d_ij f^k computed node by node.

    Calls the oracles of a PoissonSystem one point at a time (batch shape
    ()) on the iterate's finite-difference tables, so it certifies both the
    batched source term and the batched oracles themselves.
    """
    grid = state.grid
    out = np.empty((grid.node_count, state.values.shape[1]))
    for idx in range(grid.node_count):
        x, p, q = grid.nodes[idx], state.values[idx], state.grad[idx]
        psi_val = np.asarray(system.psi(x, p, q), dtype=np.float64)
        b_val = np.asarray(system.b(x, p, q), dtype=np.float64)
        out[idx] = -psi_val - np.einsum("ij,kij->k", b_val, state.hess[idx])
    return out


def ball_lattice_count(n: int, R: float, res: int) -> int:
    """Count lattice points of the res^n cube inside the closed ball.

    Triple-checked enumeration loop, independent of build_grid's masking.
    """
    axis = np.linspace(-R, R, res)
    count = 0
    if n == 2:
        for a in axis:
            for b in axis:
                if a * a + b * b <= R * R * (1.0 + 1e-12):
                    count += 1
        return count
    if n == 3:
        for a in axis:
            for b in axis:
                for c in axis:
                    if a * a + b * b + c * c <= R * R * (1.0 + 1e-12):
                        count += 1
        return count
    raise ValueError(f"n must be 2 or 3, got {n}")


def potential_reference(grid: BallGrid, source: np.ndarray,
                        hess: bool = False) -> PotentialField:
    """Dense O(N^2) kernel sum: N(f) of an (N,) or (N, m) source, and its
    Hessian, summed node pair by node pair in row blocks.  The reference
    for the FFT pass of the potential module."""
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
