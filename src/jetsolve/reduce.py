"""Reduction of a quasi-linear system to Poisson form.

Two exact transformations take Lu = phi with a prescribed 1-jet to an
equivalent problem whose solution has a zero jet and whose principal part is
the plain Laplacian at the origin:

* a jet shift, substituting u = v + c0 + c1 x into the coefficient oracles;
* a linear change of coordinates y = P x with P A0 P^T = I, where A0 is the
  (symmetrized) coefficient matrix at the zero jet and P = A0^(-1/2), the
  symmetric inverse square root.

After both, the equation reads  lap(v) = psi + sum_ij b^ij d_ij v  with
b vanishing at the origin on the zero jet, which is what the fixed-point
iteration consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class EllipticityError(ValueError):
    """Coefficient matrix failed the positivity requirement."""


class ChartError(ValueError):
    """Prescribed jet leaves the target chart."""


@dataclass(eq=False)
class SystemDef:
    """Quasi-linear system sum_ij a^ij(x,u,Du) d_ij u^k = phi^k(x,u,Du).

    The oracles are batched over points: a maps x (..., n), p (..., m)
    and q (..., m, n) to coefficient matrices (..., n, n), and phi maps the
    same arguments to right sides (..., m).  Every leading axis is a batch
    axis and must broadcast; batch shape () is a single point.  lam is the
    documented ellipticity constant on the sampling box |p| <= p_bound,
    |q| <= q_bound, |x| <= x_bound; chart_radius bounds |u| when the target
    is a chart.
    """

    n: int
    m: int
    a: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    phi: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    lam: float
    name: str = "custom"
    x_bound: float = 1.0
    p_bound: float = 1.0
    q_bound: float = 1.0
    chart_radius: float | None = None

    def __post_init__(self):
        # "not in range" also rejects nan, which would switch the
        # ellipticity check off: nan fails every comparison
        for key in ("x_bound", "p_bound", "q_bound", "lam"):
            if not 0 < getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be positive and finite")


@dataclass(frozen=True)
class JetSpec:
    """Prescribed 1-jet: value c0 and gradient c1 of the solution at 0."""

    c0: np.ndarray
    c1: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c0", np.asarray(self.c0, dtype=np.float64))
        object.__setattr__(self, "c1", np.asarray(self.c1, dtype=np.float64))
        if self.c0.ndim != 1:
            raise ValueError("c0 must be a vector")
        if self.c1.shape != (self.c0.shape[0], self.c1.shape[-1]) or self.c1.ndim != 2:
            raise ValueError("c1 must be an (m, n) matrix")

    @property
    def m(self) -> int:
        return self.c0.shape[0]

    @property
    def n(self) -> int:
        return self.c1.shape[1]

    @staticmethod
    def zero(m: int, n: int) -> "JetSpec":
        return JetSpec(np.zeros(m), np.zeros((m, n)))


@dataclass(eq=False)
class PoissonSystem:
    """Zero-jet Poisson form  lap(v) = psi + sum_ij b^ij d_ij v.

    psi and b take (x, p, q) in the transformed coordinates, batched like
    the SystemDef oracles: x (..., n), p (..., m), q (..., m, n) give
    psi (..., m) and b (..., n, n).  P is the coordinate map (y = P x),
    P_inv its inverse.  b(0, 0, 0) vanishes by construction, which is
    asserted at build time.
    """

    n: int
    m: int
    psi: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    b: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    P: np.ndarray
    P_inv: np.ndarray
    chart_radius: float | None = None

    def __post_init__(self):
        z_x = np.zeros(self.n)
        z_p = np.zeros(self.m)
        z_q = np.zeros((self.m, self.n))
        b0 = np.asarray(self.b(z_x, z_p, z_q))
        if np.abs(b0).max() > 1e-9:
            raise ValueError(f"b(0,0,0) must vanish, got max |b| = {np.abs(b0).max()}")


def shift_jet(system: SystemDef, jet: JetSpec) -> SystemDef:
    """Substitute u = v + c0 + c1 x so the new unknown has a zero jet."""
    if (jet.m, jet.n) != (system.m, system.n):
        raise ValueError(
            f"jet shape ({jet.m}, {jet.n}) does not match system "
            f"({system.m}, {system.n})"
        )
    if system.chart_radius is not None:
        c0_norm = float(np.linalg.norm(jet.c0))
        if c0_norm >= system.chart_radius:
            raise ChartError(
                f"|c0| = {c0_norm} leaves the chart of radius {system.chart_radius}"
            )
    c0, c1 = jet.c0, jet.c1

    def a_shift(x, p, q):
        return system.a(x, p + c0 + x @ c1.T, q + c1)

    def phi_shift(x, p, q):
        return system.phi(x, p + c0 + x @ c1.T, q + c1)

    return SystemDef(
        n=system.n, m=system.m, a=a_shift, phi=phi_shift, lam=system.lam,
        name=system.name + "+jet", x_bound=system.x_bound,
        p_bound=system.p_bound, q_bound=system.q_bound,
        chart_radius=system.chart_radius,
    )


def diagonalize(system: SystemDef) -> PoissonSystem:
    """Flatten the principal part at the zero jet into the Laplacian.

    Uses the symmetric inverse square root P = A0^(-1/2); gradients
    transform contravariantly, so the oracles receive q P where q is the
    gradient in the new coordinates.  Shift with shift_jet first when the
    expansion point is not the zero jet.

    Both transforms are one GEMM over every point of a batch, whatever its
    shape (() included): q P is the (..., m, n) gradients as rows
    (... * m, n) times P, and b = P (A0 - a) P^T is the deviations as rows
    (..., n * n) times kron(P, P)^T, since (P D P^T)_ij = sum_kl P_ik P_jl
    D_kl.  The Kronecker product is built once here.
    ``oracle.poisson_form_reference`` computes both point by point.
    """
    n, m = system.n, system.m
    z_x, z_p, z_q = np.zeros(n), np.zeros(m), np.zeros((m, n))
    A0 = np.asarray(system.a(z_x, z_p, z_q), dtype=np.float64)
    if A0.shape != (n, n):
        raise ValueError(f"coefficient oracle returned shape {A0.shape}")
    A0 = 0.5 * (A0 + A0.T)
    evals, evecs = np.linalg.eigh(A0)
    if evals.min() <= 0:
        raise EllipticityError(
            f"coefficients at the zero jet are not positive definite: "
            f"eigenvalues {evals.tolist()}"
        )
    P = evecs @ np.diag(evals**-0.5) @ evecs.T
    P_inv = evecs @ np.diag(evals**0.5) @ evecs.T
    kron_T = np.kron(P, P).T

    def gradients(q):
        q = np.asarray(q, dtype=np.float64)
        return (q.reshape(-1, n) @ P).reshape(q.shape)

    def psi(x, p, q):
        return np.asarray(system.phi(x @ P_inv.T, p, gradients(q)),
                          dtype=np.float64)

    def b(x, p, q):
        dev = A0 - np.asarray(system.a(x @ P_inv.T, p, gradients(q)),
                              dtype=np.float64)
        return (dev.reshape(-1, n * n) @ kron_T).reshape(dev.shape)

    return PoissonSystem(
        n=n, m=m, psi=psi, b=b, P=P, P_inv=P_inv,
        chart_radius=system.chart_radius,
    )


def check_ellipticity(system: SystemDef, samples: int = 1000) -> float:
    """Sample xi^T a xi >= lam |xi|^2 over the documented (x, p, q) box.

    The draws come from one fixed generator, default_rng(0), so a system
    meets the same draws in every solve; they go to the coefficient oracle
    in one batched call.  Returns the worst observed margin (min of
    xi^T a xi / |xi|^2 - lam); raises EllipticityError naming the first
    draw that violates the bound.
    """
    rng = np.random.default_rng(0)
    n, m = system.n, system.m
    x = unit_ball(rng, n, samples) * system.x_bound
    p = unit_ball(rng, m, samples) * system.p_bound
    q = unit_ball(rng, m * n, samples).reshape(samples, m, n) * system.q_bound
    xi = rng.standard_normal((samples, n))
    norms = np.linalg.norm(xi, axis=1)
    used = norms >= 1e-12
    xi[used] /= norms[used, None]
    a = np.asarray(system.a(x, p, q), dtype=np.float64)
    if a.shape != (samples, n, n):
        raise ValueError(f"coefficient oracle returned shape {a.shape}, "
                         f"expected {(samples, n, n)}")
    vals = np.einsum("ki,kij,kj->k", xi, a, xi)
    bad = used & (vals < system.lam * (1.0 - 1e-9) - 1e-12)
    if bad.any():
        k = int(np.argmax(bad))
        raise EllipticityError(
            f"ellipticity violated at draw {k}: xi^T a xi = {vals[k]} < "
            f"lam = {system.lam} (x={x[k].tolist()}, p={p[k].tolist()}, "
            f"q={q[k].tolist()})"
        )
    return float(np.min(vals[used] - system.lam, initial=np.inf))


def unit_ball(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """count points (count, dim) drawn uniformly from the closed unit ball."""
    v = rng.standard_normal((count, dim))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    radii = rng.uniform(size=(count, 1)) ** (1.0 / dim)
    return v / norms * radii
