"""Independent reference computations used to certify the main operators.

Only the tests import this module; no library module does, so
``import jetsolve`` does not load it.  The finite-difference reference
rebuilds its own neighbor table from raw coordinates.  Some references
share pieces of the code they check, on purpose, because each certifies
one step and not the pieces under it: ``potential_reference`` takes
``quad_weights`` from the potential module, because it checks the FFT
convolution of that module and its rescaling from R = 1, not its
quadrature rule (the closed-form ``potential.uniform_ball_potential``
checks the rule);
``taylor_remainder_ratio_reference`` takes the probe's exact derivatives,
and ``run_attempt_reference`` takes the sweep and the norm of ``picard``,
because they check the pair scan and the norm schedule.
``max_weighted_norm_reference`` and the Hessian seminorms of
``taylor_remainder_ratio_reference`` share only the pair set's node ids
with ``holder``: each takes its distances from the grid's own nodes and
is a full scan written out in one line, so it checks the pruning, the
order of the scan and the R = 1 distances ``holder`` reads, which it
does not have, not the sampling of pairs.  ``convolve_reference`` and
``unit_quadrature_reference`` are the whole-box transform and the point
cloud that the potential module's pruned transforms and per-axis
subsample counts replaced; the fast paths are held to them bitwise.
``norm_comparison_reference`` is the comparison block that measures both
jet norms of every zero-jet probe through ``probes.with_zero_jet``, with
``holder.max_weighted_norm``: it checks which norms the lemma suite's
bounded block leaves unmeasured and the columns it takes from the probe
jets, not the norm scan.
``quotient_bounds_reference``, ``christoffel_reference`` and
``poisson_form_reference`` compute along the short axes what the fast
paths compute along the long ones: the bucket bounds as (buckets, k)
gathers, the conformal connection as a broadcast of the identity, and the
Poisson-form transforms as two small matrix products per point.  The
bounds and the connection are held to them bitwise; the transforms to
rounding, and bitwise where P = I.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .grid import BallGrid, multi_indices
from .holder import (_EPS, comparison_base, max_weighted_norm,
                     norm_comparison_holds)
from .picard import CONTRACTION_THRESHOLD, make_state, picard_map, solver_norm
from .potential import KernelSpec, PotentialField, quad_weights
from .probes import with_zero_jet

_BLOCK_BYTES = 4e7


def fd_values_reference(grid: BallGrid, vals, beta) -> np.ndarray:
    """Finite-difference derivative computed route by route, node by node.

    Independent of the grid's stencil table: the lattice and the neighbor
    lookup are rebuilt from raw node coordinates, each stencil is written
    out as a formula, and each stencil-starved node gets its own
    least-squares quadratic fit on the K nearest nodes found by sorting
    all nodes on the integer squared distance in that lattice, then on the
    float squared distance of the same lattice points on the unit grid
    (np.linspace(-1, 1, res) per axis), then on lattice index.  Meant for
    small grids; the fits cost O(N log N) per node.
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
    unit = np.linspace(-1.0, 1.0, grid.res)[lat]
    for node in np.nonzero(np.isnan(out))[0]:
        d2 = np.einsum("ij,ij->i", lat - lat[node], lat - lat[node])
        du = unit - unit[node]
        order = np.lexsort(tuple(lat[:, d] for d in range(n - 1, -1, -1))
                           + (np.einsum("ij,ij->i", du, du), d2))
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
    self_int = kernel.ball_integral((w / kernel.unit_ball_volume) ** (1 / n))
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


def convolve_reference(ball, spectra: np.ndarray,
                       source: np.ndarray) -> np.ndarray:
    """Free-space convolution of each kernel spectrum with an (N, m) node
    source, transformed over the whole zero-padded box at once:
    np.fft.irfftn(spectra * np.fft.rfftn(padded)), (kernels, m, N) at the
    nodes.  The reference for the pruned transforms of
    ``potential._convolve``."""
    n, L = ball.n, spectra.shape[1]
    axes = tuple(range(-n, 0))
    at_nodes = (slice(None),) + tuple(ball.lattice.T)
    padded = np.zeros((source.shape[1],) + (L,) * n)
    padded[at_nodes] = source.T
    out = np.fft.irfftn(spectra[:, None] * np.fft.rfftn(padded, axes=axes),
                        s=(L,) * n, axes=axes)
    return out[(slice(None),) + at_nodes]


def unit_quadrature_reference(ball) -> tuple[np.ndarray, np.ndarray]:
    """The quadrature weights and self-cell integrals at R = 1 from a point
    cloud: every subsample of every straddling cell as a point, tested by
    its squared norm.  The reference for ``potential._unit_quadrature``,
    which counts the same subsamples from per-axis squares."""
    n, h, nodes = ball.n, ball.unit_h, ball.unit_nodes
    kernel = KernelSpec(n)
    w = np.full(ball.node_count, h**n)
    circum = 0.5 * h * math.sqrt(n)
    radius = np.sqrt(np.einsum("ij,ij->i", nodes, nodes))
    straddle = radius + circum > 1.0
    if straddle.any():
        sub = 9 if n == 2 else 7
        offs = (np.arange(sub) + 0.5) / sub - 0.5
        corners = np.asarray(list(itertools.product(offs, repeat=n))) * h
        pts = nodes[straddle][:, None, :] + corners[None, :, :]
        frac = (np.einsum("ijk,ijk->ij", pts, pts) <= 1.0).mean(axis=1)
        w[straddle] = frac * h**n
        missing = kernel.unit_ball_volume - w.sum()
        w[straddle] += missing * w[straddle] / w[straddle].sum()
    r_eq = (w / kernel.unit_ball_volume) ** (1.0 / n)
    return w, kernel.ball_integral(r_eq)


def max_weighted_norm_reference(values, alpha: float, pairs) -> float:
    """Largest weighted norm over the columns of values (N, k), each column
    a full scan of every pair written out in one line.  The reference for
    ``holder.max_weighted_norm``."""
    c = (2.0 * pairs.grid.R) ** alpha
    i, j, nodes = pairs.first, pairs.second, pairs.grid.nodes
    dist = np.linalg.norm(nodes[i] - nodes[j], axis=1)
    return float(np.max([np.abs(v).max()
                         + c * (np.abs(v[i] - v[j]) / dist**alpha).max()
                         for v in np.asarray(values, dtype=np.float64).T]))


def taylor_remainder_ratio_reference(probe, alpha: float, pairs) -> float:
    """Taylor remainder ratio by the direct expansion in both directions.

    Rebuilds the pair offsets and distances from the grid's nodes on every
    call, takes each Hessian seminorm from a full scan of every pair,
    expands around each end with the offset (or its negation) as written,
    and divides only the live pairs.
    The reference for ``holder.taylor_remainder_ratio``.
    """
    grid = pairs.grid
    n = grid.n
    i, j = pairs.first, pairs.second
    dx = grid.nodes[i] - grid.nodes[j]
    dist = np.linalg.norm(dx, axis=1)

    f = probe.values(grid)
    grads = [probe.values(grid, beta) for beta in multi_indices(n, 1)]
    hess_beta = multi_indices(n, 2)
    hess = {beta: probe.values(grid, beta) for beta in hess_beta}

    semi_sum = 0.0
    for beta in hess_beta:
        v = hess[beta]
        semi_sum += float((np.abs(v[i] - v[j]) / dist**alpha).max())
    rhs = 0.5 * semi_sum * dist ** (2.0 + alpha)

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


def norm_comparison_reference(battery, jets, pairs, alpha: float) -> dict:
    """The comparison block's verdict, violations and worst ratios from
    the order-0 and order-1 jet norms of every probe less its 1-jet at the
    origin (``probes.with_zero_jet``), each a max_weighted_norm of the
    zero-jet probe's exact derivatives.  jets are the battery's
    ``holder.probe_jet``: a zero-jet probe's order-2 norm is the largest
    Hessian norm of the probe's.  The reference for the bounded block of
    ``verify.run_lemma_suite``.
    """
    grid = pairs.grid
    base = comparison_base(grid)
    worst0 = worst1 = 0.0
    violations = []
    for probe, jet in zip(battery, jets):
        zero = with_zero_jet(probe, grid.n)
        order0, order1 = (max_weighted_norm(
            np.stack([zero.values(grid, beta)
                      for beta in multi_indices(grid.n, order)], axis=1),
            alpha, pairs) for order in (0, 1))
        top = float(jet.hess_norms[2].max())
        if not norm_comparison_holds((order0, order1, top), base):
            violations.append(probe.name)
        if top > 0:
            worst0 = max(worst0, order0 / (base**2 * top))
            worst1 = max(worst1, order1 / (base * top))
    return {"passed": not violations, "violations": violations,
            "worst_ratio_order0": worst0, "worst_ratio_order1": worst1}


def run_attempt_reference(system, pairs, seed_vals, record, config):
    """One fixed-(R, gamma) attempt measuring the iterate's norm every sweep.

    The eager loop: both the increment norm and the iterate norm are full
    scans on every sweep, the increment taken as ``picard._run_attempt``
    takes it, on the difference of the two iterates' order-2 columns.
    Same arguments, result and record writes as ``picard._run_attempt``,
    whose lazy iterate norms it certifies; the returned norm is that of
    the last iterate whatever the outcome.
    """
    grid = pairs.grid
    state = make_state(grid, np.zeros((grid.node_count, system.m)))
    increments, ratios = record.increment_norms, record.ratios
    streak = 0
    for _ in range(config.max_iter):
        new = make_state(grid, picard_map(system, state, seed_vals))
        inc = solver_norm(new.order2 - state.order2, config.alpha, pairs)
        increments.append(inc)
        record.iterations = len(increments)
        state = new
        f_norm = solver_norm(state.order2, config.alpha, pairs)
        if not f_norm <= record.gamma_start:
            record.outcome = "escaped"
            record.escape_norm = f_norm
            break
        if inc < config.tol:
            record.outcome = "converged"
            break
        if len(increments) >= 2 and increments[-2] > 0:
            r = increments[-1] / increments[-2]
            ratios.append(r)
            streak = streak + 1 if r > CONTRACTION_THRESHOLD else 0
            if streak >= 3:
                record.outcome = "no_contraction"
                break
    return state, f_norm


def quotient_bounds_reference(values, alpha: float, pairs) -> np.ndarray:
    """(buckets, k) bounds on the pair quotients of each column of values
    (N, k), from (cubes, k) maxima and minima gathered by fancy indexing
    at each bucket's two cubes.  It reads the pair set's buckets and least
    distances.  The reference for ``holder._quotient_bounds``, which
    returns the same bounds as (k, buckets) rows."""
    buckets = pairs.buckets
    by_cube = np.asarray(values, dtype=np.float64).take(buckets.node_order,
                                                        axis=0)
    top = np.maximum.reduceat(by_cube, buckets.cube_start, axis=0)
    low = np.minimum.reduceat(by_cube, buckets.cube_start, axis=0)
    a, b = buckets.cube_a, buckets.cube_b
    span = np.maximum(top[a] - low[b], top[b] - low[a])
    span /= pairs.unit.bucket_min_dist_pow(alpha)[:, None]
    return span


def christoffel_reference(sign: float, p) -> np.ndarray:
    """Connection G[..., a, b, c] = d_ab s_c + d_ac s_b - d_bc s_a of the
    metric (2 / (1 + sign |u|^2))^2 I at chart points p (..., m), with
    s = -sign 2 u / (1 + sign |u|^2), as a broadcast of the identity
    against s.  No chart check.  The reference for the connection of the
    sphere and hyperbolic targets in ``systems``."""
    p = np.asarray(p, dtype=np.float64)
    eye = np.eye(p.shape[-1])
    r2 = np.einsum("...i,...i->...", p, p)
    s = -sign * 2.0 * p / (1.0 + sign * r2)[..., None]
    return (eye[:, :, None] * s[..., None, None, :]
            + eye[:, None, :] * s[..., None, :, None]
            - eye[None, :, :] * s[..., :, None, None])


def poisson_form_reference(system, form, x, p, q) -> tuple:
    """(psi, b) of the Poisson form ``form = reduce.diagonalize(system)``
    at the points x (..., n), p (..., m), q (..., m, n), one point at a
    time: the gradients q @ P and the deviation P @ (A0 - a) @ P.T as
    matrix products of the point's own (m, n) and (n, n) arrays, with A0
    the symmetrized coefficients at the zero jet.  The reference for the
    batched transforms of ``diagonalize``."""
    n, m = system.n, system.m
    P, P_inv = form.P, form.P_inv
    A0 = np.asarray(system.a(np.zeros(n), np.zeros(m), np.zeros((m, n))),
                    dtype=np.float64)
    A0 = 0.5 * (A0 + A0.T)
    x, p, q = (np.asarray(v, dtype=np.float64) for v in (x, p, q))
    batch = np.broadcast_shapes(x.shape[:-1], p.shape[:-1], q.shape[:-2])
    x = np.broadcast_to(x, batch + (n,))
    p = np.broadcast_to(p, batch + (m,))
    q = np.broadcast_to(q, batch + (m, n))
    psi, b = np.empty(batch + (m,)), np.empty(batch + (n, n))
    for idx in np.ndindex(batch):
        y, grad = x[idx] @ P_inv.T, q[idx] @ P
        psi[idx] = system.phi(y, p[idx], grad)
        b[idx] = P @ (A0 - system.a(y, p[idx], grad)) @ P.T
    return psi, b
