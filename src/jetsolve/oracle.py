"""Independent reference computations used to certify the main operators.

The finite-difference references rebuild their own neighbor tables from
raw coordinates, and the closed forms below were derived by hand and are
re-checked symbolically in the test suite.  Some references share pieces
of the code they check, on purpose, because each certifies one step and
not the pieces under it: ``potential_reference`` takes ``quad_weights``
and ``self_cell_integrals`` from the potential module, because it checks
the FFT convolution of that module, not its quadrature rule (the
closed-form ``uniform_ball_potential`` checks the rule);
``taylor_remainder_ratio_reference`` takes the derivatives and seminorms
of ``holder``, and ``run_attempt_reference`` takes the sweep and the norm
of ``picard``, because they check the pair scan and the norm schedule.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import BallGrid, ScalarField, fd_derivative, multi_indices
from .holder import _EPS, weighted_norm_values
from .picard import AttemptRecord, make_state, picard_map, solver_norm
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


def taylor_remainder_ratio_reference(field: ScalarField, alpha: float,
                                     pairs) -> float:
    """Taylor remainder ratio by the direct expansion in both directions.

    Rebuilds the pair offsets on every call, expands around each end with
    the offset (or its negation) as written, and divides only the live
    pairs.  The reference for ``holder.taylor_remainder_ratio``.
    """
    if field.analytic_derivs is None:
        raise ValueError("taylor_remainder_ratio needs analytic_derivs")
    grid = field.grid
    n = grid.n
    i, j = pairs.first, pairs.second
    dx = grid.nodes[i] - grid.nodes[j]

    f = field.values
    grads = [fd_derivative(field, beta).values for beta in multi_indices(n, 1)]
    hess_beta = multi_indices(n, 2)
    hess = {beta: fd_derivative(field, beta).values for beta in hess_beta}

    semi_sum = 0.0
    for beta in hess_beta:
        _, semi, _ = weighted_norm_values(hess[beta], alpha, pairs)
        semi_sum += semi
    rhs = 0.5 * semi_sum * pairs.dist ** (2.0 + alpha)

    scale = max(1.0, float(np.abs(f).max()))
    worst = 0.0
    for a, b, step in ((i, j, dx), (j, i, -dx)):
        taylor = f[b].copy()
        for d in range(n):
            taylor += grads[d][b] * step[:, d]
        for beta in hess_beta:
            d1 = beta.index(max(beta))
            if max(beta) == 2:
                taylor += 0.5 * hess[beta][b] * step[:, d1] ** 2
            else:
                d1, d2 = [k for k, v in enumerate(beta) if v == 1]
                taylor += hess[beta][b] * step[:, d1] * step[:, d2]
        lhs = np.abs(f[a] - taylor)
        live = lhs > _EPS * scale
        if not np.any(live):
            continue
        with np.errstate(divide="ignore"):
            ratios = np.where(rhs[live] > 0.0, lhs[live] / rhs[live], np.inf)
        worst = max(worst, float(ratios.max()))
    return worst


def run_attempt_reference(system, grid: BallGrid, pairs, seed_vals,
                          gamma: float, config):
    """One fixed-(R, gamma) attempt measuring the iterate's norm every sweep.

    The eager loop: both the increment norm and the iterate norm are full
    scans on every sweep.  Same arguments and result as
    ``picard._run_attempt``, whose lazy iterate norms it certifies; the
    returned norm is that of the last iterate whatever the outcome.
    """
    f = np.zeros((grid.node_count, system.m))
    increments: list[float] = []
    ratios: list[float] = []
    streak = 0
    outcome = "max_iter"
    escape_norm = None
    for _ in range(config.max_iter):
        state = make_state(grid, f)
        new, _src = picard_map(system, state, seed_vals)
        inc = solver_norm(grid, new - f, config.alpha, pairs)
        increments.append(inc)
        f = new
        f_norm = solver_norm(grid, f, config.alpha, pairs)
        if f_norm > gamma:
            outcome = "escaped"
            escape_norm = f_norm
            break
        if inc < config.tol:
            outcome = "converged"
            break
        if len(increments) >= 2 and increments[-2] > 0:
            r = increments[-1] / increments[-2]
            ratios.append(r)
            streak = streak + 1 if r > config.contraction_threshold else 0
            if streak >= 3:
                outcome = "no_contraction"
                break
    record = AttemptRecord(
        R=grid.R, gamma_start=gamma, gamma_end=gamma,
        iterations=len(increments), outcome=outcome,
        increment_norms=increments, ratios=ratios, escape_norm=escape_norm,
    )
    return outcome, f, f_norm, record
