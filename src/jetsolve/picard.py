"""Fixed-point solver for zero-jet Poisson-form systems.

The iteration lives on a closed ball of fields: starting from zero,
each sweep evaluates the source term of the current iterate, applies the
Newtonian potential, adds the harmonic seed, and subtracts the origin jet
(value, gradient, and off-diagonal second-order terms — a harmonic
polynomial, so the subtraction never perturbs the Laplacian).  The ball
radius in norm (gamma) doubles when an iterate escapes; the domain radius
halves when doubling is exhausted or the increments stop contracting.

Derivatives of iterates are taken by finite differences throughout; the
origin jet subtracted by the sweep uses the same stencils, which is what
makes the zero-jet property of each iterate exact rather than merely
O(h^2).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NoReturn, Sequence

import numpy as np

from .grid import (BallGrid, LatticeBall, PairSet, build_grid, build_pair_set,
                   fd_derivatives, fd_values, multi_indices)
from .holder import max_weighted_norm
from .potential import check_potential_norm_bound, newtonian_potential
from .probes import potential_probes
from .reduce import (JetSpec, PoissonSystem, SystemDef, check_ellipticity,
                     diagonalize, shift_jet, unit_ball)
from .systems import integral_value, real_value


class SolveFailure(RuntimeError):
    """Base class for solver give-ups; carries the partial report."""

    def __init__(self, message: str, report: "SolveReport | None" = None):
        super().__init__(message)
        self.report = report


class NoConvergence(SolveFailure):
    """Radius floor reached without a contracting run."""


class IterateEscaped(SolveFailure):
    """Iterates kept leaving the norm ball even after enlarging it."""


class OracleFailure(RuntimeError):
    """A coefficient or source oracle misbehaved at a specific node."""

    def __init__(self, message: str, node: np.ndarray | None = None):
        if node is not None:
            message = f"{message} at node {np.asarray(node).tolist()}"
        super().__init__(message)
        self.node = None if node is None else np.asarray(node, dtype=float)


# ---------------------------------------------------------------------------
# harmonic seed polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HarmonicPolynomial:
    """Polynomial of degree <= 3 whose Laplacian cancels identically.

    terms maps exponent tuples to coefficients, or lists (exponents,
    coefficient) pairs, whose repeated exponents add up.  Exponents are
    integral numbers and coefficients real ones (a bool or a string is
    neither).
    Harmonicity is verified symbolically on the monomial coefficients at
    construction, so a non-harmonic seed is rejected before it can
    contaminate a solve.
    """

    terms: tuple[tuple[tuple[int, ...], float], ...]

    def __init__(self, terms: dict[tuple[int, ...], float] | Sequence):
        items = terms.items() if isinstance(terms, dict) else terms
        canon: dict[tuple[int, ...], float] = {}
        dim = None
        for expo, coeff in items:
            expo = tuple(integral_value(v) for v in expo)
            if any(v < 0 for v in expo):
                raise ValueError(f"negative exponent in {expo}")
            if dim is None:
                dim = len(expo)
            elif len(expo) != dim:
                raise ValueError("inconsistent exponent lengths")
            if sum(expo) > 3:
                raise ValueError(
                    f"seed degree {sum(expo)} exceeds 3 (term {expo})"
                )
            canon[expo] = canon.get(expo, 0.0) + real_value(coeff)
        if dim is None:
            raise ValueError("empty polynomial")
        lap: dict[tuple[int, ...], float] = {}
        scale = max((abs(c) for c in canon.values()), default=0.0)
        for expo, coeff in canon.items():
            for i, e in enumerate(expo):
                if e >= 2:
                    key = tuple(v - 2 if j == i else v
                                for j, v in enumerate(expo))
                    lap[key] = lap.get(key, 0.0) + coeff * e * (e - 1)
        bad = {k: v for k, v in lap.items() if abs(v) > 1e-10 * (1.0 + scale)}
        if bad:
            raise ValueError(f"polynomial is not harmonic; Laplacian terms {bad}")
        object.__setattr__(
            self, "terms", tuple(sorted(canon.items()))
        )

    @property
    def dimension(self) -> int:
        return len(self.terms[0][0])

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        out = np.zeros(pts.shape[0])
        for expo, coeff in self.terms:
            if coeff == 0.0:
                continue
            term = np.full(pts.shape[0], coeff)
            for i, e in enumerate(expo):
                if e:
                    term *= pts[:, i] ** e
            out += term
        return out

    def to_jsonable(self) -> list:
        return [[list(e), c] for e, c in self.terms]


def seed_field_values(seed, grid: BallGrid, m: int) -> np.ndarray:
    """Evaluate the per-component harmonic seed on the grid -> (N, m)."""
    out = np.zeros((grid.node_count, m))
    if seed is None:
        return out
    if isinstance(seed, HarmonicPolynomial):
        seed = [seed]
    seed = list(seed)
    if len(seed) != m:
        raise ValueError(f"need {m} seed polynomials, got {len(seed)}")
    for k, poly in enumerate(seed):
        if poly is None:
            continue
        if poly.dimension != grid.n:
            raise ValueError(
                f"seed component {k} has dimension {poly.dimension}, "
                f"grid has {grid.n}"
            )
        out[:, k] = poly.evaluate(grid.nodes)
    return out


# ---------------------------------------------------------------------------
# configuration and state
# ---------------------------------------------------------------------------

# Constants of the method rather than settings of a solve: three sweeps in
# a row whose increment ratio exceeds CONTRACTION_THRESHOLD count as stalled
# contraction; gamma0 never falls below GAMMA0_FLOOR, which keeps a positive
# norm ball when the source vanishes at the origin; gamma doubles at most
# MAX_GAMMA_DOUBLINGS times in a solve, across all radii; the coefficient
# deviation estimate draws DEVIATION_SAMPLES points per box.
CONTRACTION_THRESHOLD = 0.9
GAMMA0_FLOOR = 0.5
MAX_GAMMA_DOUBLINGS = 6
DEVIATION_SAMPLES = 512


@dataclass
class SolveConfig:
    """Knobs for one solve.  Field names mirror the CLI/config schema."""

    R0: float = 1.0
    R_min: float | None = None          # default R0 / 64
    res: int = 33
    alpha: float = 0.5
    tol: float = 1e-7
    max_iter: int = 40
    gamma0: float | None = None         # None -> derived from the source rule
    seed: int = 0
    harmonic_seed: Sequence[HarmonicPolynomial] | HarmonicPolynomial | None = None

    def __post_init__(self):
        for key in ("res", "max_iter", "seed"):
            try:
                setattr(self, key, integral_value(getattr(self, key)))
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
        for key in ("R0", "R_min", "alpha", "tol", "gamma0"):
            if getattr(self, key) is not None:
                try:
                    setattr(self, key, real_value(getattr(self, key)))
                except ValueError as exc:
                    raise ValueError(f"{key}: {exc}") from None
        # written as "not in range" so that nan, which fails every
        # comparison, is rejected too
        if not 0 < self.R0 < math.inf:
            raise ValueError("R0 must be positive and finite")
        if self.R_min is not None and not 0 < self.R_min < self.R0 * (1 + 1e-12):
            raise ValueError("R_min must lie in (0, R0]")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.res < 5 or self.res % 2 == 0:
            raise ValueError("res must be odd and at least 5")
        if self.gamma0 is not None and not 0 < self.gamma0 < math.inf:
            raise ValueError("gamma0 must be positive and finite")
        if not self.seed >= 0:
            raise ValueError("seed must be >= 0")

    @property
    def radius_floor(self) -> float:
        return self.R_min if self.R_min is not None else self.R0 / 64.0


@dataclass(eq=False)
class IterateState:
    """One iterate with its finite-difference derivative tables."""

    grid: BallGrid
    values: np.ndarray            # (N, m)
    grad: np.ndarray              # (N, m, n)
    hess: np.ndarray              # (N, m, n, n), symmetric in the last axes

    @property
    def m(self) -> int:
        return self.values.shape[1]


def make_state(grid: BallGrid, values: np.ndarray) -> IterateState:
    """Fill the derivative tables of an iterate by finite differences."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim == 1:
        vals = vals[:, None]
    n, m, big_n = grid.n, vals.shape[1], grid.node_count
    derivs = fd_derivatives(grid, vals)
    grad = np.empty((big_n, m, n))
    hess = np.empty((big_n, m, n, n))
    for d in range(n):
        grad[:, :, d] = derivs[d]
    for deriv, beta in zip(derivs[n:], multi_indices(n, 2)):
        i, j = [d for d, k in enumerate(beta) for _ in range(k)]
        hess[:, :, i, j] = hess[:, :, j, i] = deriv
    return IterateState(grid=grid, values=vals, grad=grad, hess=hess)


# ---------------------------------------------------------------------------
# the sweep: source term, potential, jet subtraction
# ---------------------------------------------------------------------------

def source_term(system: PoissonSystem, state: IterateState) -> np.ndarray:
    """Right side fed to the potential:  -psi - sum_ij b^ij d_ij f^k.

    One batched psi call and one batched b call on all nodes of the
    iterate's finite-difference tables.  A wrong result shape, a
    non-finite row or an oracle exception raises OracleFailure; the last
    two name the first offending node.
    """
    grid = state.grid
    big_n, m, n = grid.node_count, state.m, grid.n
    x, p, q = grid.nodes, state.values, state.grad
    try:
        psi_val = np.asarray(system.psi(x, p, q), dtype=np.float64)
        b_val = np.asarray(system.b(x, p, q), dtype=np.float64)
    except Exception as exc:  # noqa: BLE001 - wrap with location
        _raise_at_failing_node(system, x, p, q, exc)
    if psi_val.shape != (big_n, m) or b_val.shape != (big_n, n, n):
        raise OracleFailure(
            f"oracle shape mismatch (psi {psi_val.shape}, b {b_val.shape}; "
            f"expected {(big_n, m)} and {(big_n, n, n)})"
        )
    out = -psi_val - np.einsum("kij,kmij->km", b_val, state.hess)
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        raise OracleFailure("oracle produced non-finite values",
                            node=x[np.argmin(finite)])
    return out


def _raise_at_failing_node(system: PoissonSystem, x: np.ndarray,
                           p: np.ndarray, q: np.ndarray,
                           exc: Exception) -> NoReturn:
    """Name the first node whose own oracle call raises (failure path only)."""
    for idx in range(x.shape[0]):
        try:
            system.psi(x[idx], p[idx], q[idx])
            system.b(x[idx], p[idx], q[idx])
        except Exception as node_exc:  # noqa: BLE001 - wrap with location
            raise OracleFailure(f"coefficient oracle raised {node_exc!r}",
                                node=x[idx]) from node_exc
    raise OracleFailure(f"coefficient oracle raised {exc!r} on the batch "
                        "but on no single node") from exc


def _origin_jet_polynomial(grid: BallGrid, vals: np.ndarray) -> np.ndarray:
    """Evaluate the subtracted jet polynomial of an (N,) or (N, m) field.

    The polynomial collects the origin-node value, the finite-difference
    gradient, and the off-diagonal second-order terms, each read from the
    origin's stencil row; its diagonal second-order part is empty, so its
    (discrete and continuous) Laplacian vanishes and the subtraction leaves
    the field's Laplacian untouched.  The monomials are those of the unit
    nodes, so each origin stencil value is scaled by R^|beta| instead.
    """
    o = grid.origin_index
    vals = np.asarray(vals, dtype=np.float64)
    poly = np.zeros_like(vals) + vals[o]
    betas, monos = _jet_monomials(grid.ball)
    for beta, mono in zip(betas, monos):
        coeff = fd_values(grid, vals, beta, node=o) * grid.R**sum(beta)
        poly += np.multiply.outer(mono, coeff)
    return poly


def _jet_monomials(ball: LatticeBall) -> tuple[list, list]:
    """The multi-indices of the subtracted jet, those of order 1 and then
    the mixed ones of order 2, and their monomials at the unit nodes (R =
    1): x_i and x_i * x_j by plain products, bitwise the values of
    np.prod(unit_nodes ** beta, axis=1).  Built once per ball."""
    key = "jet_monomials"
    if key not in ball._shared:
        n, x = ball.n, ball.unit_nodes.T
        mixed = [b for b in multi_indices(n, 2) if max(b) == 1]
        pairs = [[d for d in range(n) if b[d]] for b in mixed]
        ball._shared[key] = (multi_indices(n, 1) + mixed,
                             list(x) + [x[i] * x[j] for i, j in pairs])
    return ball._shared[key]


def picard_map(system: PoissonSystem, state: IterateState,
               seed_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One sweep: potential of the source, seed added, origin jet removed.

    Returns (new_values, source_values).  The subtracted jet uses the same
    finite-difference stencils as every later jet check, which pins the
    origin value and gradient of the result at exactly zero.
    """
    grid = state.grid
    src = source_term(system, state)
    omega = newtonian_potential(src, grid).values
    cand = omega + seed_values
    return cand - _origin_jet_polynomial(grid, cand), src


# ---------------------------------------------------------------------------
# norms, gamma rule, deviation estimate, residual
# ---------------------------------------------------------------------------

def solver_norm(values: np.ndarray, alpha: float, pairs: PairSet) -> float:
    """Discrete second-order weighted Holder norm of an (N, m) field on
    pairs.grid: the largest weighted norm over every finite-difference
    second derivative of every component.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim == 1:
        vals = vals[:, None]
    derivs = fd_derivatives(pairs.grid, vals, order=2)
    return max_weighted_norm(np.concatenate(derivs, axis=1), alpha, pairs)


def _probe_res(n: int, res: int) -> int:
    """Resolution of the C_hat probe grid: the solve's, capped at 21 in 2D
    and 17 in 3D (odd, as a valid config.res is)."""
    return min(res, 17 if n == 3 else 21)


def choose_norm_radius(system: PoissonSystem, config: SolveConfig,
                       ) -> tuple[float, float | None, float]:
    """Initial norm-ball radius gamma0 from the source size at the origin.

    gamma0 = max(4 * C_hat * max_i |psi^i(0,0,0)|, GAMMA0_FLOOR), with C_hat
    the measured potential norm-amplification ratio on a coarse probe grid
    at the solve radius.  Returns (gamma0, C_hat or None, |psi(0)|).  C_hat
    is measured only when it can set gamma0: an explicit config.gamma0
    short-circuits the rule, and when psi(0) is exactly zero the product is
    zero for every finite C_hat, so gamma0 is GAMMA0_FLOOR and no probe
    runs.  A nan psi(0) still runs the probe, as the rule then reads C_hat.
    The probe builds its own grid of radius R0 and its seed-0 pair set.
    """
    z_x = np.zeros(system.n)
    z_p = np.zeros(system.m)
    z_q = np.zeros((system.m, system.n))
    psi0 = float(np.max(np.abs(np.asarray(system.psi(z_x, z_p, z_q)))))
    if config.gamma0 is not None:
        return float(config.gamma0), None, psi0
    if psi0 == 0.0:
        return GAMMA0_FLOOR, None, psi0
    grid = build_grid(system.n, config.R0, _probe_res(system.n, config.res))
    ratios = check_potential_norm_bound(potential_probes(system.n),
                                        config.alpha, build_pair_set(grid))
    c_hat = max(ratios.values())
    gamma0 = max(4.0 * c_hat * psi0, GAMMA0_FLOOR)
    return gamma0, c_hat, psi0


def coefficient_deviation_sup(system: PoissonSystem, radius: float,
                              gamma: float, seed: int = 0) -> float:
    """Largest |b^kl| over the box |x| <= R, |p| <= R^2 g, |q| <= R g.

    DEVIATION_SAMPLES unit-ball draws are fixed by the seed and rescaled
    per box, and the box corners are always included, so shrinking the box
    can never raise the estimate for coefficient families that grow along
    rays.  The draws and the corner product each go to b in one batched
    call.
    """
    n, m, samples = system.n, system.m, DEVIATION_SAMPLES
    rng = np.random.default_rng(seed)
    p_cap = radius * radius * gamma
    q_cap = radius * gamma
    xs = unit_ball(rng, n, samples) * radius
    ps = unit_ball(rng, m, samples) * p_cap
    qs = unit_ball(rng, m * n, samples).reshape(samples, m, n) * q_cap
    # box corners, paired with the origin in the other slots
    corner_x = _signed_axes(n) * radius
    corner_p = _signed_axes(m) * p_cap
    corner_q = np.concatenate([
        _signed_axes(m * n) * q_cap,
        np.full((1, m * n), q_cap / math.sqrt(m * n)),
    ]).reshape(-1, m, n)
    ix, ip, iq = np.indices(
        (len(corner_x), len(corner_p), len(corner_q))).reshape(3, -1)
    drawn = np.asarray(system.b(xs, ps, qs), dtype=np.float64)
    corners = np.asarray(system.b(corner_x[ix], corner_p[ip], corner_q[iq]),
                         dtype=np.float64)
    return float(max(np.abs(drawn).max(), np.abs(corners).max()))


def _signed_axes(dim: int) -> np.ndarray:
    """The origin and the points -e_i, +e_i of R^dim, as rows."""
    return np.concatenate([np.zeros((1, dim)), -np.eye(dim), np.eye(dim)])


@dataclass(frozen=True)
class ResidualReport:
    """Interior defect of a candidate solution, by finite differences."""

    residual_sup: float           # sup over interior nodes of |lap u + source|
    source_sup: float             # sup over all nodes of |source|
    node_residuals: np.ndarray    # (N,) max over components, nan off-interior


def residual_check(system: PoissonSystem, grid: BallGrid,
                   values: np.ndarray) -> ResidualReport:
    """Check lap(u) = -source with stencils independent of the quadrature."""
    state = make_state(grid, values)
    src = source_term(system, state)
    lap = np.einsum("kmii->km", state.hess)
    defect = np.abs(lap + src).max(axis=1)
    node_res = np.where(grid.interior_mask, defect, np.nan)
    interior = defect[grid.interior_mask]
    sup = float(interior.max()) if interior.size else float("nan")
    return ResidualReport(residual_sup=sup,
                          source_sup=float(np.abs(src).max()),
                          node_residuals=node_res)


def origin_jet_magnitudes(grid: BallGrid,
                          values: np.ndarray) -> tuple[float, float]:
    """(|f(0)|, |Df(0)|) at the origin node, max over components."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim == 1:
        vals = vals[:, None]
    o = grid.origin_index
    value_mag = float(np.abs(vals[o]).max())
    grad_mag = max(float(np.abs(fd_values(grid, vals, beta, node=o)).max())
                   for beta in multi_indices(grid.n, 1))
    return value_mag, grad_mag


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

@dataclass
class AttemptRecord:
    """One (radius, gamma) attempt of the iteration.

    deviation_sup is a sampled sup: the largest |b^kl| over the
    DEVIATION_SAMPLES (512) seeded draws in the attempt's box plus the box
    corners (see :func:`coefficient_deviation_sup`).
    """

    R: float
    gamma_start: float
    gamma_end: float
    iterations: int
    outcome: str                   # converged | escaped | no_contraction | max_iter
    increment_norms: list[float]
    ratios: list[float]
    deviation_sup: float | None = None
    escape_norm: float | None = None


@dataclass
class SolveReport:
    """Everything a run learned, whether or not it converged."""

    status: str
    grid: BallGrid | None
    solution: np.ndarray | None   # (N, m) converged iterate
    final_R: float
    gamma: float
    gamma0: float
    c_hat: float | None
    psi_origin: float
    iterations: int
    increment_norms: list[float]
    ratios: list[float]
    ratio_geomean: float | None
    residual: float | None
    source_sup: float | None
    node_residuals: np.ndarray | None
    jet_value: float | None
    jet_gradient: float | None
    solution_norm: float | None
    attempts: list[AttemptRecord]
    config: SolveConfig
    pair_count: int | None = None
    # filled by solve_system when a jet/coordinate reduction is involved
    original_coords: np.ndarray | None = None
    reconstructed: np.ndarray | None = None
    in_chart: bool | None = None
    transform: np.ndarray | None = None

    def summary(self) -> dict:
        """JSON-safe digest (no whole-field arrays)."""
        return {
            "status": self.status,
            "final_R": self.final_R,
            "gamma": self.gamma,
            "gamma0": self.gamma0,
            "c_hat": self.c_hat,
            "psi_origin": self.psi_origin,
            "iterations": self.iterations,
            "increment_norms": self.increment_norms,
            "contraction_ratios": self.ratios,
            "contraction_geomean": self.ratio_geomean,
            "residual_sup": self.residual,
            "source_sup": self.source_sup,
            "jet_value": self.jet_value,
            "jet_gradient": self.jet_gradient,
            "solution_norm": self.solution_norm,
            "attempts": [asdict(a) for a in self.attempts],
            "pair_count": self.pair_count,
            "in_chart": self.in_chart,
        }


def _run_attempt(system: PoissonSystem, pairs: PairSet,
                 seed_vals: np.ndarray, gamma: float,
                 config: SolveConfig) -> tuple[str, np.ndarray, float | None,
                                               AttemptRecord]:
    """Iterate at fixed (R, gamma) on pairs.grid until convergence or a
    failure signal.

    Returns the outcome, the last iterate, its order-2 norm and the record.
    The increment norm is measured on every sweep.  The iterate's own norm
    is read only by the escape test and as the converged solution's norm,
    so it is measured only when the triangle bound (last measured norm plus
    the increments since) cannot rule out an escape, and at convergence;
    the returned norm is None when the last iterate's was never measured.
    A nan or inf norm ends the attempt as an escape, never as converged.
    """
    grid = pairs.grid
    f = np.zeros((grid.node_count, system.m))
    increments: list[float] = []
    ratios: list[float] = []
    streak = 0
    outcome = "max_iter"
    escape_norm = None
    f_norm: float | None = None
    bound = 0.0
    for sweep in range(config.max_iter):
        state = make_state(grid, f)
        new, _src = picard_map(system, state, seed_vals)
        inc = solver_norm(new - f, config.alpha, pairs)
        increments.append(inc)
        if sweep == 0:
            f_norm = bound = inc  # f is zero, so new - f is new bit for bit
        else:
            f_norm, bound = None, bound + inc
            # The norm is subadditive, so bound >= norm(new) up to rounding.
            # Rounding moves a measured norm by about 1e-9 relative at most
            # on res <= 65 grids (eps times FD weights ~h^-2 on values up to
            # (3nR)^2 times the norm), so the 1e-6 slack covers hundreds of
            # sweeps between two measurements.  This test and the escape
            # test below are negated so that nan, which fails every
            # comparison, takes the safe branch: a nan or inf increment
            # makes the bound non-finite, the iterate's norm is measured,
            # and a non-finite norm escapes.
            if not bound * (1.0 + 1e-6) < gamma:
                f_norm = bound = solver_norm(new, config.alpha, pairs)
        f = new
        if f_norm is not None and not f_norm <= gamma:
            outcome = "escaped"
            escape_norm = f_norm
            break
        if inc < config.tol:
            outcome = "converged"
            if f_norm is None:
                f_norm = solver_norm(f, config.alpha, pairs)
            break
        if len(increments) >= 2 and increments[-2] > 0:
            r = increments[-1] / increments[-2]
            ratios.append(r)
            streak = streak + 1 if r > CONTRACTION_THRESHOLD else 0
            if streak >= 3:
                outcome = "no_contraction"
                break
    record = AttemptRecord(
        R=grid.R, gamma_start=gamma, gamma_end=gamma,
        iterations=len(increments), outcome=outcome,
        increment_norms=increments, ratios=ratios, escape_norm=escape_norm,
    )
    return outcome, f, f_norm, record


def picard_solve(system: PoissonSystem, config: SolveConfig,
                 ball: LatticeBall | None = None) -> SolveReport:
    """Run the adaptive fixed-point iteration.

    Policy: escape of the norm ball doubles gamma (bounded by
    MAX_GAMMA_DOUBLINGS, shared across radii); non-contraction, iteration
    exhaustion, or an exhausted doubling budget halves the radius and
    restarts from zero on a fresh grid; gamma is carried across halvings.
    Raises NoConvergence/IterateEscaped at the radius floor, with the
    partial report attached to the exception.

    Every radius's grid and pair set is built on one lattice ball of
    (system.n, config.res): ball when given (build_grid raises ValueError
    if it is not of that (n, res)), else one made for this call alone.
    """
    radius = config.R0
    floor = config.radius_floor
    ball = LatticeBall(system.n, config.res) if ball is None else ball

    gamma, c_hat, psi0 = choose_norm_radius(system, config)
    gamma0 = gamma
    doublings = 0
    attempts: list[AttemptRecord] = []
    last_outcome = "never_ran"

    while True:
        grid = build_grid(system.n, radius, config.res, ball)
        pairs = build_pair_set(grid, seed=config.seed)
        seed_vals = seed_field_values(config.harmonic_seed, grid, system.m)

        while True:
            outcome, f, f_norm, record = _run_attempt(
                system, pairs, seed_vals, gamma, config)
            record.deviation_sup = coefficient_deviation_sup(
                system, radius, gamma, seed=config.seed)
            attempts.append(record)
            last_outcome = outcome

            if outcome == "converged":
                return _final_report(system, pairs, f, f_norm, config,
                                     gamma, gamma0, c_hat, psi0, attempts)
            if outcome == "escaped" and doublings < MAX_GAMMA_DOUBLINGS:
                doublings += 1
                gamma *= 2.0
                record.gamma_end = gamma
                continue
            break  # halve the radius

        # release this radius's grid and pair set before the next are built
        grid = pairs = None
        radius *= 0.5
        if radius < floor * (1.0 - 1e-12):
            report = _partial_report(system, config, radius * 2.0, gamma,
                                     gamma0, c_hat, psi0, attempts,
                                     last_outcome)
            if last_outcome == "escaped":
                raise IterateEscaped(
                    f"norm ball exceeded after {doublings} doublings down to "
                    f"radius {radius * 2.0:g} (floor {floor:g})",
                    report=report,
                )
            raise NoConvergence(
                f"no contracting run above the radius floor {floor:g} "
                f"(last outcome: {last_outcome})",
                report=report,
            )


def _final_report(system, pairs, f, f_norm, config, gamma, gamma0,
                  c_hat, psi0, attempts) -> SolveReport:
    grid = pairs.grid
    res = residual_check(system, grid, f)
    jet_value, jet_gradient = origin_jet_magnitudes(grid, f)
    final = attempts[-1]
    ratios = final.ratios
    geo = (float(np.exp(np.mean(np.log(ratios))))
           if ratios and all(r > 0 for r in ratios) else None)
    return SolveReport(
        status="converged",
        grid=grid,
        solution=f,
        final_R=grid.R,
        gamma=gamma,
        gamma0=gamma0,
        c_hat=c_hat,
        psi_origin=psi0,
        iterations=final.iterations,
        increment_norms=final.increment_norms,
        ratios=ratios,
        ratio_geomean=geo,
        residual=res.residual_sup,
        source_sup=res.source_sup,
        node_residuals=res.node_residuals,
        jet_value=jet_value,
        jet_gradient=jet_gradient,
        solution_norm=f_norm,
        attempts=attempts,
        config=config,
        pair_count=pairs.drawn,
    )


def _partial_report(system, config, last_R, gamma, gamma0, c_hat, psi0,
                    attempts, outcome) -> SolveReport:
    return SolveReport(
        status=f"failed:{outcome}",
        grid=None, solution=None,
        final_R=last_R, gamma=gamma, gamma0=gamma0, c_hat=c_hat,
        psi_origin=psi0,
        iterations=attempts[-1].iterations if attempts else 0,
        increment_norms=attempts[-1].increment_norms if attempts else [],
        ratios=attempts[-1].ratios if attempts else [],
        ratio_geomean=None,
        residual=None, source_sup=None, node_residuals=None,
        jet_value=None, jet_gradient=None, solution_norm=None,
        attempts=attempts, config=config,
    )


# ---------------------------------------------------------------------------
# full pipeline: jet shift, diagonalization, solve, reconstruction
# ---------------------------------------------------------------------------

def solve_system(system: SystemDef, jet: JetSpec | None,
                 config: SolveConfig,
                 ellipticity_samples: int = 1000,
                 ball: LatticeBall | None = None) -> SolveReport:
    """Solve a quasi-linear system with a prescribed 1-jet at the origin.

    The system is sampled for ellipticity, shifted so the unknown has a
    zero jet, diagonalized at the origin, handed to the fixed-point
    iteration, and the solution is mapped back:
    u(x) = c0 + c1 x + v(P x).  The report gains the node coordinates in
    the original frame, the reconstructed values, the coordinate map, and
    an in-chart flag when the system declares a chart radius.  ball, when
    given, is the lattice ball of (system.n, config.res) that the solve's
    grids share (see :func:`picard_solve`).
    """
    if jet is None:
        jet = JetSpec.zero(system.m, system.n)
    if (jet.m, jet.n) != (system.m, system.n):
        raise ValueError(
            f"jet shape ({jet.m}, {jet.n}) does not match system "
            f"({system.m}, {system.n})"
        )
    if ellipticity_samples:
        check_ellipticity(system, samples=ellipticity_samples,
                          seed=config.seed)
    shifted = shift_jet(system, jet)
    poisson = diagonalize(shifted)
    report = picard_solve(poisson, config, ball)
    _attach_reconstruction(report, poisson, jet)
    return report


def _attach_reconstruction(report: SolveReport, poisson: PoissonSystem,
                           jet: JetSpec) -> None:
    if report.grid is None or report.solution is None:
        return
    grid = report.grid
    x_orig = grid.nodes @ poisson.P_inv.T
    u_vals = jet.c0[None, :] + x_orig @ jet.c1.T + report.solution
    report.original_coords = x_orig
    report.reconstructed = u_vals
    report.transform = poisson.P
    if poisson.chart_radius is not None:
        sup_u = float(np.linalg.norm(u_vals, axis=1).max())
        report.in_chart = bool(sup_u < poisson.chart_radius)
    else:
        report.in_chart = True
