"""Concrete quasi-linear systems and target geometries.

Each builder returns a :class:`~jetsolve.reduce.SystemDef` wrapping numpy
coefficient oracles.  Registries map names (as used by the command line and
config files) to builders so new systems plug in without touching the solver.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .reduce import SystemDef


# ---------------------------------------------------------------------------
# target geometries for map systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TargetManifold:
    """A Riemannian target presented in a single chart.

    christoffel(p) returns the connection coefficients G[..., a, b, c] at
    chart points p (..., m), shaped (..., m, m, m); metric(p) the metric
    matrices (..., m, m).  Leading axes are batch axes; a single point has
    batch shape ().  chart_radius bounds |p| for admissible points
    (None = all of R^m); flat marks targets whose connection vanishes
    identically, and it is the only flatness test the Kobayashi search
    makes.
    """

    name: str
    dimension: int
    christoffel: Callable[[np.ndarray], np.ndarray]
    metric: Callable[[np.ndarray], np.ndarray]
    chart_radius: float | None = None
    flat: bool = False


def _conformal_target(name: str, m: int, sign: float,
                      chart_radius: float | None) -> TargetManifold:
    """Target with metric lam(u)^2 I, lam = 2 / (1 + sign * |u|^2).

    sign=+1 gives the round sphere in stereographic coordinates, sign=-1
    the hyperbolic disk in the Poincare chart.  For a conformal factor the
    connection is

        G[a, b, c] = d_ab s_c + d_ac s_b - d_bc s_a,   s = grad log lam,

    and grad log lam = -sign * 2 u / (1 + sign * |u|^2).  Each entry is
    built along the batch axis as that sum of the three Kronecker terms,
    each s_c or 0 * s_c: bitwise the broadcast form
    ``oracle.christoffel_reference``, signed zeros included.
    """
    eye = np.eye(m)

    def _norm_sq(p: np.ndarray) -> np.ndarray:
        """|p|^2 per point, after checking that every point is in the chart."""
        r2 = np.einsum("...i,...i->...", p, p)
        if chart_radius is not None and np.any(r2 >= chart_radius**2):
            worst = float(np.sqrt(np.max(r2)))
            raise ValueError(
                f"chart point |u| = {worst:.6g} outside the "
                f"{name} chart of radius {chart_radius}"
            )
        return r2

    def christoffel(p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=np.float64)
        s = -sign * 2.0 * p / (1.0 + sign * _norm_sq(p))[..., None]
        # terms[d][c] is d * s_c, for d = 0 and 1, along the batch axes
        terms = (np.moveaxis(0.0 * s, -1, 0), np.moveaxis(s, -1, 0))
        out = np.empty(s.shape + (m, m))
        for a, b, c in itertools.product(range(m), repeat=3):
            entry = out[..., a, b, c]
            np.add(terms[a == b][c], terms[a == c][b], out=entry)
            entry -= terms[b == c][a]
        return out

    def metric(p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=np.float64)
        lam = 2.0 / (1.0 + sign * _norm_sq(p))
        return (lam * lam)[..., None, None] * eye

    return TargetManifold(name=name, dimension=m, christoffel=christoffel,
                          metric=metric, chart_radius=chart_radius, flat=False)


def _constant(value: np.ndarray, point: np.ndarray) -> np.ndarray:
    """value repeated over the batch axes of points (..., d): (..., *shape)."""
    return np.broadcast_to(value, np.shape(point)[:-1] + value.shape)


def euclidean_target(m: int) -> TargetManifold:
    """Flat R^m: identity metric, vanishing connection."""
    zero = np.zeros((m, m, m))
    eye = np.eye(m)
    return TargetManifold(
        name="euclidean", dimension=m,
        christoffel=lambda p: _constant(zero, p),
        metric=lambda p: _constant(eye, p),
        chart_radius=None, flat=True,
    )


def sphere_stereographic_target(m: int = 2) -> TargetManifold:
    """Round m-sphere, stereographic chart (misses one point).

    The chart covers everything except the antipode; we cap |u| at 10 so
    iterates stay well inside the numerically trustworthy region.
    """
    return _conformal_target("sphere", m, sign=+1.0, chart_radius=10.0)


def hyperbolic_disk_target(m: int = 2) -> TargetManifold:
    """Hyperbolic m-space in the Poincare ball chart |u| < 1."""
    return _conformal_target("hyperbolic", m, sign=-1.0, chart_radius=1.0)


# ---------------------------------------------------------------------------
# scalar systems
# ---------------------------------------------------------------------------

def poisson_system(n: int, const: np.ndarray | float = 0.0,
                   linear: np.ndarray | None = None,
                   m: int = 1) -> SystemDef:
    """lap(u) = const + linear . x, identity coefficients.

    The solver-facing coefficient matrix is already the identity, so the
    deviation term vanishes and the fixed-point map converges in at most
    two sweeps (one to integrate the source, one to confirm).
    """
    c = np.broadcast_to(np.asarray(const, dtype=np.float64), (m,)).copy()
    if linear is None:
        lin = np.zeros((m, n))
    else:
        lin = np.asarray(linear, dtype=np.float64).reshape(m, n).copy()
    eye = np.eye(n)

    return SystemDef(
        n=n, m=m,
        a=lambda x, p, q: _constant(eye, x),
        phi=lambda x, p, q: c + x @ lin.T,
        lam=1.0, name="poisson",
        x_bound=2.0, p_bound=2.0, q_bound=2.0,
    )


def _graph_gradient_sq(q: np.ndarray) -> np.ndarray:
    """|Du|^2 per point for scalar-graph gradients q (..., 1, n)."""
    du = np.asarray(q, dtype=np.float64)[..., 0, :]
    return np.einsum("...i,...i->...", du, du)


def _graph_coefficients(q: np.ndarray) -> np.ndarray:
    """I - Du Du^T / (1 + |Du|^2) for scalar-graph gradients q (..., 1, n)."""
    du = np.asarray(q, dtype=np.float64)[..., 0, :]
    denom = 1.0 + _graph_gradient_sq(q)
    outer = du[..., :, None] * du[..., None, :]
    return np.eye(du.shape[-1]) - outer / denom[..., None, None]


def minimal_surface_system(n: int, q_bound: float = 1.0) -> SystemDef:
    """Non-parametric minimal surface equation for a graph over R^n.

    Written with coefficients I - Du Du^T/(1+|Du|^2) and zero right side;
    the smallest coefficient eigenvalue over |Du| <= q_bound is
    1 / (1 + q_bound^2).
    """
    return SystemDef(
        n=n, m=1,
        a=lambda x, p, q: _graph_coefficients(q),
        phi=lambda x, p, q: np.zeros(np.shape(p)),
        lam=1.0 / (1.0 + q_bound**2),
        name="minimal_surface",
        x_bound=2.0, p_bound=2.0, q_bound=q_bound,
    )


def prescribed_mean_curvature_system(
    n: int,
    mean_curvature: Callable[[np.ndarray, np.ndarray], np.ndarray] | float,
    q_bound: float = 1.0,
) -> SystemDef:
    """Graph with prescribed mean curvature H(x, u).

    Same principal part as the minimal surface; right side
    n H (1 + |Du|^2)^(1/2).  mean_curvature may be a constant or a
    callable (x, u) -> H taking points x (..., n) and values u (...) and
    broadcasting over the batch axes.
    """
    if callable(mean_curvature):
        h_fn = mean_curvature
    else:
        h_val = float(mean_curvature)
        h_fn = lambda x, u: h_val  # noqa: E731

    def phi(x, p, q):
        p = np.asarray(p, dtype=np.float64)
        rhs = n * h_fn(x, p[..., 0]) * np.sqrt(1.0 + _graph_gradient_sq(q))
        return rhs[..., None]

    return SystemDef(
        n=n, m=1,
        a=lambda x, p, q: _graph_coefficients(q),
        phi=phi,
        lam=1.0 / (1.0 + q_bound**2),
        name="prescribed_mean_curvature",
        x_bound=2.0, p_bound=2.0, q_bound=q_bound,
    )


# ---------------------------------------------------------------------------
# harmonic maps
# ---------------------------------------------------------------------------

def harmonic_map_system(n: int, target: TargetManifold,
                        q_bound: float = 1.0) -> SystemDef:
    """Harmonic map system from a flat domain into a chart of the target.

    The equation is

        lap(u^a) = - G^a_bc(u) <Du^b, Du^c>,

    so the coefficient matrix is the identity (deviation-free) and all the
    nonlinearity sits in the right side.
    """
    m = target.dimension
    eye = np.eye(n)

    def phi(x, p, q):
        gamma = target.christoffel(np.asarray(p, dtype=np.float64))
        qm = np.asarray(q, dtype=np.float64)
        inner = qm @ np.swapaxes(qm, -1, -2)    # <Du^b, Du^c>
        return -np.einsum("...abc,...bc->...a", gamma, inner)

    return SystemDef(
        n=n, m=m, a=lambda x, p, q: _constant(eye, x), phi=phi, lam=1.0,
        name=f"harmonic_map[{target.name}]",
        x_bound=2.0, p_bound=min(2.0, 0.9 * (target.chart_radius or np.inf)),
        q_bound=q_bound,
        chart_radius=target.chart_radius,
    )


# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------

def integral_value(value) -> int:
    """An integer field's value as a Python int: from an integer (numpy's
    included) or a float with no fractional part; anything else, a bool
    among them, raises ValueError.

    int() alone would truncate 21.5 to 21, read "21" as 21 and true as 1.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"not an integral number: {value!r}")


def real_value(value) -> float:
    """A real field's value as a Python float: from a real number (numpy's
    included); anything else, a bool or a string among them, raises
    ValueError.

    float() alone would read true as 1.0 and "2.5" as 2.5.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"not a real number: {value!r}")


def real_array(value) -> np.ndarray:
    """A real array field's value as a new float64 array: from a real
    number, a numpy array of an integer or float dtype, or nested
    sequences of these; a bool or a string anywhere in it, or a ragged
    nesting, raises ValueError.

    np.asarray(value, dtype=np.float64) alone would read true as 1.0 and
    "0.3" as 0.3.
    """
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "iuf":
            raise ValueError(f"not an array of real numbers: {value!r}")
        return value.astype(np.float64)
    if isinstance(value, (list, tuple)):
        return np.asarray([real_array(v) for v in value], dtype=np.float64)
    return np.asarray(real_value(value))


def _real_param(params: dict, key: str, default: float) -> float:
    """A real parameter, named in the ValueError of a bad value."""
    try:
        return real_value(params.get(key, default))
    except ValueError as exc:
        raise ValueError(f"{key!r}: {exc}") from None


def _count_param(params: dict, key: str, default: int) -> int:
    """A dimension parameter: an integral number, at least 1."""
    value = params.get(key, default)
    try:
        if integral_value(value) >= 1:
            return int(value)
    except ValueError:
        pass
    raise ValueError(f"{key!r} must be an integer >= 1, got {value!r}")


TARGET_REGISTRY: dict[str, Callable[..., TargetManifold]] = {
    "euclidean": euclidean_target,
    "sphere": sphere_stereographic_target,
    "hyperbolic": hyperbolic_disk_target,
}


def _build_poisson(n: int, params: dict) -> SystemDef:
    arrays = {}
    for key in ("const", "linear"):
        if key in params:
            try:
                arrays[key] = real_array(params[key])
            except ValueError as exc:
                raise ValueError(f"{key!r}: {exc}") from None
    return poisson_system(n, **arrays, m=_count_param(params, "m", 1))


def _build_minimal_surface(n: int, params: dict) -> SystemDef:
    return minimal_surface_system(n, q_bound=_real_param(params, "q_bound",
                                                         1.0))


def _build_pmc(n: int, params: dict) -> SystemDef:
    return prescribed_mean_curvature_system(
        n,
        mean_curvature=_real_param(params, "mean_curvature", 0.0),
        q_bound=_real_param(params, "q_bound", 1.0),
    )


def _build_harmonic_map(n: int, params: dict) -> SystemDef:
    target_name = params.get("target", "sphere")
    if target_name not in TARGET_REGISTRY:
        raise ValueError(
            f"unknown target {target_name!r}; known: {sorted(TARGET_REGISTRY)}"
        )
    target = TARGET_REGISTRY[target_name](_count_param(params, "target_dim", 2))
    return harmonic_map_system(n, target,
                               q_bound=_real_param(params, "q_bound", 1.0))


SYSTEM_REGISTRY: dict[str, Callable[[int, dict], SystemDef]] = {
    "poisson": _build_poisson,
    "minimal_surface": _build_minimal_surface,
    "prescribed_mean_curvature": _build_pmc,
    "harmonic_map": _build_harmonic_map,
}


def build_system(name: str, n: int, params: dict | None = None) -> SystemDef:
    """Look up a registered system builder and apply it."""
    if name not in SYSTEM_REGISTRY:
        raise ValueError(
            f"unknown system {name!r}; known: {sorted(SYSTEM_REGISTRY)}"
        )
    return SYSTEM_REGISTRY[name](n, params or {})
