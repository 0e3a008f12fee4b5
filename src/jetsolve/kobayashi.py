"""Upper bounds for a Riemannian analogue of the Kobayashi metric.

The quantity of interest at a chart point p with tangent vector X is the
infimum of 1/R over disks D_R admitting a harmonic map that is conformal
at the origin with u(0) = p and u_x(0) = X.  An exhibited map can only
lower the infimum, so every number this module returns is an upper bound:
the search solves the harmonic-map system on an ascending radius schedule
with the jet [X | Y], Y the metric-orthogonal partner of X, and keeps the
largest radius that produced an in-chart solution.

Two exact short-circuits exist: X = 0 gives 0 by definition, and a flat
target admits the linear map p + x X + y Y on every disk, driving the
bound to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import LatticeBall
from .picard import (OracleFailure, SolveConfig, SolveFailure, SolveReport,
                     solve_system)
from .reduce import JetSpec
from .systems import (TargetManifold, harmonic_map_system, integral_value,
                      real_value)

# Relative tolerance of a conformal jet: |h(u_x,u_x) - h(u_y,u_y)| +
# |h(u_x,u_y)| may reach CONFORMALITY_TOL times h(u_x,u_x).
CONFORMALITY_TOL = 1e-8


@dataclass(frozen=True)
class KobayashiQuery:
    """One estimation request: where, which vector, how hard to search.

    r_start and growth are real numbers and max_steps an integral one,
    stored as a float and an int; a bool or a string is neither
    (ValueError).
    """

    target: TargetManifold
    p: np.ndarray
    X: np.ndarray
    r_start: float = 0.25
    growth: float = 1.5
    max_steps: int = 8

    def __post_init__(self):
        for key, value_of in (("r_start", real_value), ("growth", real_value),
                              ("max_steps", integral_value)):
            try:
                object.__setattr__(self, key, value_of(getattr(self, key)))
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
        object.__setattr__(self, "p", np.asarray(self.p, dtype=np.float64))
        object.__setattr__(self, "X", np.asarray(self.X, dtype=np.float64))
        m = self.target.dimension
        if m < 2:
            raise ValueError(f"target dimension must be at least 2, got {m}: "
                             "the search needs X and an orthogonal partner")
        if self.p.shape != (m,) or self.X.shape != (m,):
            raise ValueError(f"p and X must be vectors of length {m}")
        if not np.all(np.isfinite(self.p)) or not np.all(np.isfinite(self.X)):
            raise ValueError("p and X must be finite")
        if self.target.chart_radius is not None:
            if np.linalg.norm(self.p) >= self.target.chart_radius:
                raise ValueError(
                    f"chart point |p| = {np.linalg.norm(self.p)} outside "
                    f"chart radius {self.target.chart_radius}"
                )
        # "not in range" also rejects nan, which fails every comparison
        if not (0 < self.r_start < math.inf and 1 < self.growth < math.inf
                and self.max_steps >= 1):
            raise ValueError("schedule requires finite r_start > 0, finite "
                             "growth > 1 and max_steps >= 1")

    def schedule(self) -> list[float]:
        return [self.r_start * self.growth**k for k in range(self.max_steps)]


@dataclass
class RadiusOutcome:
    """Result of one disk-radius probe."""

    R: float
    success: bool
    reason: str
    residual: float | None = None
    conformality_defect: float | None = None
    iterations: int | None = None


@dataclass
class KobayashiEstimate:
    """Search result.  upper_bound is 1/R_best, never a claimed exact value."""

    upper_bound: float | None
    r_best: float | None
    outcomes: list[RadiusOutcome] = field(default_factory=list)
    certificate: str | None = None
    inconclusive: bool = False
    partner: np.ndarray | None = None


def orthogonal_partner(target: TargetManifold, p: np.ndarray,
                       X: np.ndarray) -> np.ndarray:
    """Vector Y with h(Y, Y) = h(X, X) and h(X, Y) = 0 at p.

    Built by Gram-Schmidt in the target metric, starting from the
    coordinate direction least aligned with X.  Requires a genuinely
    two-dimensional tangent space and a nonzero X.
    """
    p = np.asarray(p, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    m = target.dimension
    if m < 2:
        raise ValueError("no orthogonal partner exists in a 1-dimensional "
                         "tangent space")
    hx = float(np.linalg.norm(X))
    if hx == 0.0:
        raise ValueError("X = 0 has no orthogonal partner")
    h = np.asarray(target.metric(p), dtype=np.float64)
    xx = float(X @ h @ X)
    if xx <= 0:
        raise ValueError("metric is not positive on X")
    # seed with the coordinate axis least aligned with X (in the metric)
    seed = np.eye(m)[int(np.argmin(np.abs(h @ X)))]
    y = seed - (float(seed @ h @ X) / xx) * X
    yy = float(y @ h @ y)
    if yy <= 1e-24 * xx:
        raise ValueError("failed to build an independent partner direction")
    return y * np.sqrt(xx / yy)


def conformality_defect(target: TargetManifold, p: np.ndarray,
                        jet_matrix: np.ndarray) -> float:
    """|h(u_x,u_x) - h(u_y,u_y)| + |h(u_x,u_y)| for a 2-column jet."""
    c1 = np.asarray(jet_matrix, dtype=np.float64)
    if c1.ndim != 2 or c1.shape[1] != 2:
        raise ValueError("jet matrix must have two columns (d/dx, d/dy)")
    h = np.asarray(target.metric(np.asarray(p, dtype=np.float64)))
    ux, uy = c1[:, 0], c1[:, 1]
    return abs(float(ux @ h @ ux) - float(uy @ h @ uy)) + abs(float(ux @ h @ uy))


def is_conformal_jet(target: TargetManifold, p: np.ndarray,
                     jet_matrix: np.ndarray) -> bool:
    """Relative conformality test of a prescribed (u_x, u_y) pair."""
    c1 = np.asarray(jet_matrix, dtype=np.float64)
    h = np.asarray(target.metric(np.asarray(p, dtype=np.float64)))
    scale = float(c1[:, 0] @ h @ c1[:, 0])
    if scale == 0.0:
        return bool(conformality_defect(target, p, c1) == 0.0)
    return bool(conformality_defect(target, p, c1) <= CONFORMALITY_TOL * scale)


def estimate(query: KobayashiQuery,
             solve_config: SolveConfig | None = None) -> KobayashiEstimate:
    """Search the radius schedule and return 1/R_best as the upper bound.

    Per-probe solves run with the radius floor pinned at the probe radius,
    so any adaptive shrinking counts as failure at that radius rather than
    a silent success at a smaller one.  The schedule ascends and stops at
    the first failure; if even the smallest radius fails, the estimate is
    flagged inconclusive rather than reported as infinite.  Every radius
    solves from a zero start, so a solve_config with a harmonic_seed is a
    ValueError.  The radii's grids share one lattice ball, built here.
    """
    base = solve_config or SolveConfig(res=21, tol=1e-7)
    if base.harmonic_seed is not None:
        raise ValueError("SolveConfig.harmonic_seed must be None: the "
                         "Kobayashi search solves every radius from zero")
    if float(np.linalg.norm(query.X)) == 0.0:
        return KobayashiEstimate(upper_bound=0.0, r_best=None,
                                 certificate="zero_vector")
    if query.target.flat and query.target.chart_radius is None:
        # the linear map p + x X + y Y is harmonic and conformal at 0 on
        # every disk, so the infimum over the schedule is 0
        partner = orthogonal_partner(query.target, query.p, query.X)
        return KobayashiEstimate(upper_bound=0.0, r_best=None,
                                 certificate="linear_map", partner=partner)

    partner = orthogonal_partner(query.target, query.p, query.X)
    jet = JetSpec(query.p, np.column_stack([query.X, partner]))
    defect = conformality_defect(query.target, query.p, jet.c1)
    if not is_conformal_jet(query.target, query.p, jet.c1):
        raise ValueError(
            f"constructed jet is not conformal (defect {defect}); "
            "orthogonal partner construction failed"
        )

    ball = LatticeBall(2, base.res)
    outcomes: list[RadiusOutcome] = []
    r_best = None
    for radius in query.schedule():
        cfg = replace(base, R0=radius, R_min=radius * 0.99)
        system = harmonic_map_system(2, query.target)
        try:
            report: SolveReport = solve_system(system, jet, cfg,
                                               ellipticity_samples=0,
                                               ball=ball)
        except (SolveFailure, OracleFailure) as exc:
            outcomes.append(RadiusOutcome(
                R=radius, success=False, reason=type(exc).__name__))
            break
        if not report.in_chart:
            outcomes.append(RadiusOutcome(
                R=radius, success=False, reason="left_chart",
                residual=report.residual, iterations=report.iterations))
            break
        outcomes.append(RadiusOutcome(
            R=radius, success=True, reason="converged",
            residual=report.residual, conformality_defect=defect,
            iterations=report.iterations))
        r_best = radius

    if r_best is None:
        return KobayashiEstimate(upper_bound=None, r_best=None,
                                 outcomes=outcomes, inconclusive=True,
                                 partner=partner)
    return KobayashiEstimate(upper_bound=1.0 / r_best, r_best=r_best,
                             outcomes=outcomes, partner=partner)
