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
import sys
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .grid import (BallGrid, LatticeBall, PairSet, _read_only, build_grid,
                   build_pair_set, fd_derivatives, multi_indices,
                   stencil_table)
from .holder import max_weighted_norm
from .potential import check_potential_norm_bound, newtonian_potential
from .probes import potential_probes
from .reduce import (JetSpec, OracleFailure, PoissonSystem, SolveFailure,
                     SystemDef, _call_oracle, _origin, check_ellipticity,
                     diagonalize, shift_jet)
from .systems import integral_value, real_value


class NoConvergence(SolveFailure):
    """Radius floor reached without a contracting run."""


class IterateEscaped(SolveFailure):
    """Iterates kept leaving the norm ball even after enlarging it."""


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
# MAX_GAMMA_DOUBLINGS times in a solve, across all radii.
CONTRACTION_THRESHOLD = 0.9
GAMMA0_FLOOR = 0.5
MAX_GAMMA_DOUBLINGS = 6


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
    seed: int = 0                       # seeds the pair sample only
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
        # the stencils divide by h^2, a normal float at every radius from R0
        # down to the floor; h * h gives inf where h**2 raises
        floor_key = "R_min" if self.R_min is not None else "R_min (R0 / 64)"
        for key, radius in (("R0", self.R0), (floor_key, self.radius_floor)):
            h = 2.0 * radius / (self.res - 1)
            if not sys.float_info.min <= h * h < math.inf:
                raise ValueError(
                    f"{key} = {radius} is too {'large' if h > 1 else 'small'}"
                    f": the squared grid spacing at res {self.res} "
                    f"{'over' if h > 1 else 'under'}flows")
        if self.gamma0 is not None and not 0 < self.gamma0 < math.inf:
            raise ValueError("gamma0 must be positive and finite")
        if not self.seed >= 0:
            raise ValueError("seed must be >= 0")

    @property
    def radius_floor(self) -> float:
        return self.R_min if self.R_min is not None else self.R0 / 64.0


@dataclass(eq=False)
class IterateState:
    """One iterate with its finite-difference derivative tables.

    order2 holds the second derivatives again as the columns the solver
    norm reads: column b m + k is multi-index b of multi_indices(n, 2) of
    component k.  It is the transpose of contiguous rows (k, N), one per
    column, which the Hölder engine reads without a copy, and so is a
    difference of two iterates' order2.
    """

    grid: BallGrid
    values: np.ndarray            # (N, m)
    grad: np.ndarray              # (N, m, n)
    hess: np.ndarray              # (N, m, n, n), symmetric in the last axes
    order2: np.ndarray            # (N, m n (n + 1) / 2)


def make_state(grid: BallGrid, values: np.ndarray) -> IterateState:
    """Fill the derivative tables of an iterate by finite differences, all
    from one pass over the stencil table."""
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
    return IterateState(grid=grid, values=vals, grad=grad, hess=hess,
                        order2=derivs[n:].transpose(0, 2, 1)
                        .reshape(-1, big_n).T)


def _zero_state(grid: BallGrid, m: int) -> IterateState:
    """The zero iterate with m components: bitwise :func:`make_state` of
    zeros, whose derivative tables are zero too, without the stencil pass."""
    n, big_n = grid.n, grid.node_count
    return IterateState(grid=grid, values=np.zeros((big_n, m)),
                        grad=np.zeros((big_n, m, n)),
                        hess=np.zeros((big_n, m, n, n)),
                        order2=np.zeros((m * n * (n + 1) // 2, big_n)).T)


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
    big_n, m, n = grid.node_count, system.m, grid.n
    x, p, q = grid.nodes, state.values, state.grad
    psi_val = _call_oracle("psi", system.psi, (big_n, m), x, p, q)
    b_val = _call_oracle("b", system.b, (big_n, n, n), x, p, q)
    out = -psi_val - np.einsum("kij,kmij->km", b_val, state.hess)
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        raise OracleFailure("oracle produced non-finite values",
                            node=x[np.argmin(finite)])
    return out


def _origin_jet_polynomial(grid: BallGrid, vals: np.ndarray) -> np.ndarray:
    """Evaluate the subtracted jet polynomial of an (N,) or (N, m) field.

    The polynomial collects the origin-node value, the finite-difference
    gradient, and the off-diagonal second-order terms, each read from the
    origin's stencil row; its diagonal second-order part is empty, so its
    (discrete and continuous) Laplacian vanishes and the subtraction leaves
    the field's Laplacian untouched.  The monomials are those of the unit
    nodes, so each origin stencil value is scaled by R^|beta| instead.

    The origin's rows of every jet multi-index are read in one gather and
    one segmented sum; each sum is then divided by h^|beta| and scaled by
    R^|beta|, the float operations of fd_values(grid, vals, beta, node=o)
    times R^|beta|, so bitwise that route's coefficients.
    """
    o = grid.origin_index
    vals = np.asarray(vals, dtype=np.float64)
    orders, index, weight, starts, monos = _origin_jet(grid)
    terms = vals.take(index, axis=0)
    terms *= weight.reshape((-1,) + (1,) * (vals.ndim - 1))
    coeffs = np.add.reduceat(terms, starts, axis=0)
    poly = np.zeros_like(vals) + vals[o]
    for order, mono, coeff in zip(orders, monos, coeffs):
        coeff /= grid.h**order
        poly += np.multiply.outer(mono, coeff * grid.R**order)
    return poly


def _origin_jet(grid: BallGrid) -> tuple:
    """The subtracted jet's multi-indices, those of order 1 and then the
    mixed ones of order 2, read off the origin's stencil rows: their
    orders, the rows' entries as one gather index and weights, each row's
    start among them, and the monomials at the unit nodes (R = 1), x_i and
    x_i * x_j by plain products, bitwise the values of
    np.prod(unit_nodes ** beta, axis=1).  Built once per ball."""
    ball = grid.ball
    key = "origin_jet"
    if key not in ball._shared:
        n, x = ball.n, ball.unit_nodes.T
        mixed = [b for b in multi_indices(n, 2) if max(b) == 1]
        pairs = [[d for d in range(n) if b[d]] for b in mixed]
        table, N = stencil_table(grid), ball.node_count
        rows = [table.betas.index(b) * N + ball.origin_index
                for b in multi_indices(n, 1) + mixed]
        entries = [np.arange(table.indptr[r], table.indptr[r + 1])
                   for r in rows]
        starts = np.cumsum([0] + [e.size for e in entries[:-1]])
        entries = np.concatenate(entries)
        # the gather index stays writeable: ndarray.take copies a read-only
        # one on every call
        ball._shared[key] = (
            [1] * n + [2] * len(mixed), table.index[entries],
            *_read_only(table.weight[entries], starts),
            list(x) + [x[i] * x[j] for i, j in pairs])
    return ball._shared[key]


def picard_map(system: PoissonSystem, state: IterateState,
               seed_values: np.ndarray) -> np.ndarray:
    """One sweep: potential of the source, seed added, origin jet removed.

    Returns the new values.  The subtracted jet uses the same finite-
    difference stencils as every later jet check, which pins the origin
    value and gradient of the result at exactly zero.
    """
    grid = state.grid
    omega = newtonian_potential(source_term(system, state), grid).values
    cand = omega + seed_values
    return cand - _origin_jet_polynomial(grid, cand)


# ---------------------------------------------------------------------------
# norms, gamma rule, coefficient deviation, residual
# ---------------------------------------------------------------------------

def solver_norm(order2: np.ndarray, alpha: float, pairs: PairSet) -> float:
    """Discrete second-order weighted Holder norm on pairs.grid of a field
    given by its finite-difference second derivatives, the (N, k) columns
    of IterateState.order2 (or a difference of two iterates' columns): the
    largest weighted norm over the columns.
    """
    return max_weighted_norm(order2, alpha, pairs)


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
    psi0 = float(np.abs(_call_oracle("psi", system.psi, (system.m,),
                                     *_origin(system.n, system.m))).max())
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


def coefficient_deviation_sup(system: PoissonSystem,
                              state: IterateState) -> float:
    """Largest |b^kl| over an iterate's nodes: the exact max, not a sampled
    sup, from one batched b call on the iterate's values and gradients;
    a wrong shape or an oracle exception raises OracleFailure as in
    :func:`source_term`, and a nan or inf |b| is recorded as it is."""
    grid = state.grid
    return float(np.abs(_call_oracle(
        "b", system.b, (grid.node_count, grid.n, grid.n), grid.nodes,
        state.values, state.grad)).max())


@dataclass(frozen=True)
class ResidualReport:
    """Interior defect of a candidate solution, by finite differences."""

    residual_sup: float           # sup over interior nodes of |lap u + source|
    source_sup: float             # sup over all nodes of |source|
    node_residuals: np.ndarray    # (N,) max over components, nan off-interior


def residual_check(system: PoissonSystem,
                   state: IterateState) -> ResidualReport:
    """Check lap(u) = -source on an iterate's derivative tables, stencils
    independent of the quadrature."""
    grid = state.grid
    src = source_term(system, state)
    lap = np.einsum("kmii->km", state.hess)
    defect = np.abs(lap + src).max(axis=1)
    node_res = np.where(grid.interior_mask, defect, np.nan)
    # never an empty max: the origin is an interior node of every grid
    return ResidualReport(residual_sup=float(defect[grid.interior_mask].max()),
                          source_sup=float(np.abs(src).max()),
                          node_residuals=node_res)


def origin_jet_magnitudes(state: IterateState) -> tuple[float, float]:
    """(|f(0)|, |Df(0)|) at the origin node, max over components, read from
    the iterate's value and finite-difference gradient tables."""
    o = state.grid.origin_index
    return (float(np.abs(state.values[o]).max()),
            float(np.abs(state.grad[o]).max()))


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

@dataclass
class AttemptRecord:
    """One (radius, gamma) attempt of the iteration, filled in as it runs.

    outcome is converged, escaped, no_contraction, oracle_failure or, for
    an attempt that runs out of sweeps, max_iter.  deviation_sup is the
    largest |b^kl| over the nodes of the attempt's last iterate, an exact
    max (see :func:`coefficient_deviation_sup`).
    """

    R: float
    gamma_start: float
    gamma_end: float
    iterations: int = 0
    outcome: str = "max_iter"
    increment_norms: list[float] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)
    deviation_sup: float | None = None
    escape_norm: float | None = None


@dataclass
class SolveReport:
    """Everything a run learned, whether or not it converged.

    attempts holds one record per (radius, gamma) attempt, in order, and is
    never empty: :func:`picard_solve` appends each attempt's record before
    the attempt runs.  final_R, iterations, increment_norms and
    ratios are read from the last attempt.  The fields from grid on are
    filled only by a converged solve, and the last four only by
    :func:`solve_system`; they are None otherwise.
    """

    status: str
    gamma: float
    gamma0: float
    c_hat: float | None
    psi_origin: float
    attempts: list[AttemptRecord]
    config: SolveConfig
    grid: BallGrid | None = None
    solution: np.ndarray | None = None   # (N, m) converged iterate
    ratio_geomean: float | None = None
    residual: float | None = None
    source_sup: float | None = None
    node_residuals: np.ndarray | None = None
    jet_value: float | None = None
    jet_gradient: float | None = None
    solution_norm: float | None = None
    pair_count: int | None = None
    original_coords: np.ndarray | None = None
    reconstructed: np.ndarray | None = None
    in_chart: bool | None = None
    transform: np.ndarray | None = None

    final_R = property(lambda self: self.attempts[-1].R)
    iterations = property(lambda self: self.attempts[-1].iterations)
    increment_norms = property(lambda self: self.attempts[-1].increment_norms)
    ratios = property(lambda self: self.attempts[-1].ratios)

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
                 seed_vals: np.ndarray, record: AttemptRecord,
                 config: SolveConfig) -> tuple[IterateState, float | None]:
    """Iterate at fixed (R, gamma) on pairs.grid until convergence or a
    failure signal, writing the increments, ratios, iteration count,
    outcome and escape norm into record as the sweeps go.

    Returns the last iterate's state and its order-2 norm.  Each iterate's
    derivative tables are taken once, right after the sweep that makes it;
    they feed the next sweep, and its order-2 columns less those of the
    previous iterate give the increment, whose norm is measured on every
    sweep.  The iterate's own norm is read only by the escape test and as
    the converged solution's norm, so it is measured only when the triangle
    bound (last measured norm plus the increments since) cannot rule out an
    escape, and at convergence; the returned norm is None when the last
    iterate's was never measured.  A nan or inf norm ends the attempt as an
    escape, never as converged.
    """
    grid = pairs.grid
    state = _zero_state(grid, system.m)
    increments, ratios = record.increment_norms, record.ratios
    streak = 0
    f_norm: float | None = None
    bound = 0.0
    for sweep in range(config.max_iter):
        new = make_state(grid, picard_map(system, state, seed_vals))
        inc = solver_norm(new.order2 - state.order2, config.alpha, pairs)
        increments.append(inc)
        record.iterations = len(increments)
        if sweep == 0:
            # the zero iterate's columns are zero, so the difference is
            # new's columns bit for bit
            f_norm = bound = inc
        else:
            f_norm, bound = None, bound + inc
            # The norm is subadditive, so bound >= norm(new) up to rounding:
            # each difference of columns rounds once, by eps relative to
            # the columns, so the 1e-6 slack covers hundreds of sweeps
            # between two measurements.  This test and the escape test
            # below are negated so that nan, which fails every comparison,
            # takes the safe branch: a nan or inf increment makes the bound
            # non-finite, the iterate's norm is measured, and a non-finite
            # norm escapes.
            if not bound * (1.0 + 1e-6) < record.gamma_start:
                f_norm = bound = solver_norm(new.order2, config.alpha, pairs)
        state = new
        if f_norm is not None and not f_norm <= record.gamma_start:
            record.outcome = "escaped"
            record.escape_norm = f_norm
            break
        if inc < config.tol:
            record.outcome = "converged"
            if f_norm is None:
                f_norm = solver_norm(state.order2, config.alpha, pairs)
            break
        if len(increments) >= 2 and increments[-2] > 0:
            r = increments[-1] / increments[-2]
            ratios.append(r)
            streak = streak + 1 if r > CONTRACTION_THRESHOLD else 0
            if streak >= 3:
                record.outcome = "no_contraction"
                break
    return state, f_norm


def picard_solve(system: PoissonSystem, config: SolveConfig,
                 ball: LatticeBall | None = None) -> SolveReport:
    """Run the adaptive fixed-point iteration.

    Policy: escape of the norm ball doubles gamma (bounded by
    MAX_GAMMA_DOUBLINGS, shared across radii); non-contraction, iteration
    exhaustion, or an exhausted doubling budget halves the radius and
    restarts from zero on a fresh grid; gamma is carried across halvings.
    Raises NoConvergence/IterateEscaped at the radius floor, and
    OracleFailure when an oracle fails in an attempt, which ends the solve
    with that attempt's outcome "oracle_failure"; each carries the partial
    report, but one of psi(0), before the first attempt, carries none.

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

    while True:
        grid = build_grid(system.n, radius, config.res, ball)
        pairs = build_pair_set(grid, seed=config.seed)
        seed_vals = seed_field_values(config.harmonic_seed, grid, system.m)

        while True:
            record = AttemptRecord(grid.R, gamma, gamma)
            attempts.append(record)
            try:
                state, f_norm = _run_attempt(system, pairs, seed_vals,
                                             record, config)
                record.deviation_sup = coefficient_deviation_sup(system, state)
                if record.outcome == "converged":
                    return _final_report(
                        SolveReport("converged", gamma, gamma0, c_hat, psi0,
                                    attempts, config),
                        system, pairs, state, f_norm)
            except OracleFailure as exc:
                record.outcome = "oracle_failure"
                exc.report = SolveReport("failed:oracle_failure", gamma, gamma0,
                                         c_hat, psi0, attempts, config)
                raise
            if record.outcome == "escaped" and doublings < MAX_GAMMA_DOUBLINGS:
                doublings += 1
                gamma *= 2.0
                record.gamma_end = gamma
                continue
            break  # halve the radius

        # release this radius's grid, pair set and last iterate before the
        # next are built
        grid = pairs = state = None
        radius *= 0.5
        if radius < floor * (1.0 - 1e-12):
            outcome = attempts[-1].outcome
            report = SolveReport(f"failed:{outcome}", gamma, gamma0, c_hat,
                                 psi0, attempts, config)
            if outcome == "escaped":
                raise IterateEscaped(
                    f"norm ball exceeded after {doublings} doublings down to "
                    f"radius {report.final_R:g} (floor {floor:g})", report)
            raise NoConvergence(
                f"no contracting run above the radius floor {floor:g} "
                f"(last outcome: {outcome})", report)


def _final_report(report: SolveReport, system: PoissonSystem,
                  pairs: PairSet, state: IterateState,
                  f_norm: float) -> SolveReport:
    """Fill in what a converged solve adds to its report."""
    res = residual_check(system, state)
    ratios = report.ratios
    report.grid, report.solution = pairs.grid, state.values
    report.ratio_geomean = (float(np.exp(np.mean(np.log(ratios))))
                            if ratios and all(r > 0 for r in ratios)
                            else None)
    report.residual, report.source_sup = res.residual_sup, res.source_sup
    report.node_residuals = res.node_residuals
    report.jet_value, report.jet_gradient = origin_jet_magnitudes(state)
    report.solution_norm, report.pair_count = f_norm, pairs.drawn
    return report


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
        check_ellipticity(system, samples=ellipticity_samples)
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
