"""Discrete weighted Hölder norms and the executable norm lemmas.

The scale-invariant weighted norm on B_R is

    ||f||_a = sup |f| + (2R)^a * H_a[f],

with H_a the Hölder seminorm; the order-l jet norm takes the max of ||.||_a
over all derivatives of order exactly l, and vector fields take the max over
components.  Seminorms are evaluated on a PairSet, so every reported value
is reproducible from (grid, seed, cap).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (PairSet, ScalarField, VectorField, fd_derivative,
                   multi_indices)

_EPS = 1e-12


@dataclass(frozen=True)
class HolderReport:
    sup_norm: float
    seminorm: float
    weighted: float


@dataclass(frozen=True)
class JetNormReport:
    """Weighted jet norms by derivative order (l = 0, 1, 2)."""

    orders: tuple[float, float, float]

    @property
    def solver_norm(self) -> float:
        """The order-2 norm: the metric the fixed-point iteration lives in."""
        return self.orders[2]


def weighted_norm_values(values: np.ndarray, alpha: float,
                         pairs: PairSet) -> tuple[float, float, float]:
    """(sup, seminorm, weighted) for raw node values, one per node."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    values = np.asarray(values)
    if values.shape != (pairs.grid.node_count,):
        raise ValueError(f"values shape {values.shape} does not match node "
                         f"count {pairs.grid.node_count}")
    sup = float(np.abs(values).max())
    semi = float((np.abs(values[pairs.first] - values[pairs.second])
                  / pairs.dist_pow(alpha)).max())
    weighted = sup + (2.0 * pairs.grid.R) ** alpha * semi
    return sup, semi, weighted


def holder_norm(field: ScalarField, alpha: float, pairs: PairSet) -> HolderReport:
    """Weighted Hölder norm of a scalar field over the pair set."""
    if field.grid is not pairs.grid:
        raise ValueError("field and pairs live on different grids")
    return HolderReport(*weighted_norm_values(field.values, alpha, pairs))


def jet_norm(field, alpha: float, pairs: PairSet) -> JetNormReport:
    """Weighted jet norms of a scalar or vector field for l = 0, 1, 2.

    Derivatives come from the analytic oracle when a component carries one
    and from finite differences otherwise.
    """
    components = field.components if isinstance(field, VectorField) else (field,)
    grid = components[0].grid
    if grid is not pairs.grid:
        raise ValueError("field and pairs live on different grids")
    orders = []
    for order in (0, 1, 2):
        worst = 0.0
        for beta in multi_indices(grid.n, order):
            for comp in components:
                vals = fd_derivative(comp, beta).values
                _, _, weighted = weighted_norm_values(vals, alpha, pairs)
                worst = max(worst, weighted)
        orders.append(worst)
    return JetNormReport(tuple(orders))


# ---------------------------------------------------------------------------
# the norm lemmas: each verdict is a predicate on measured numbers


def _within(x: float, y: float) -> bool:
    """x <= y up to a relative and an absolute slack of _EPS."""
    return x <= y * (1.0 + _EPS) + _EPS


def banach_algebra_holds(nf: float, ng: float, nfg: float) -> bool:
    """Verdict of ||fg|| <= ||f|| ||g|| on the three weighted norms."""
    return _within(nfg, nf * ng)


def taylor_remainder_ratio(field: ScalarField, alpha: float,
                           pairs: PairSet) -> float:
    """Worst ratio of remainder to bound over all pairs, both directions.

    The bound is (1/2) (sum over |beta| = 2 of H_a[d^beta f]) |y-x|^(2+a);
    a return value <= 1 means the remainder inequality held everywhere.
    Pairs where both sides vanish (quadratic fields) contribute 0.
    Requires the analytic derivative oracle so the check certifies the
    inequality and not the stencils.

    The pair offsets and |y-x|^(2+a) are cached on the pair set.  The
    reverse direction negates every offset, which IEEE arithmetic does
    exactly, so it subtracts the gradient terms and adds the same Hessian
    terms; every ratio is bitwise that of the direct expansion
    (``oracle.taylor_remainder_ratio_reference``).
    """
    if field.analytic_derivs is None:
        raise ValueError("taylor_remainder_ratio needs analytic_derivs")
    n = field.grid.n
    i, j = pairs.first, pairs.second
    steps = pairs.steps()
    squares = [c**2 for c in steps]

    f = field.values
    grads = [fd_derivative(field, beta).values for beta in multi_indices(n, 1)]
    hess_beta = multi_indices(n, 2)
    hess = {beta: fd_derivative(field, beta).values for beta in hess_beta}

    semi_sum = 0.0
    for beta in hess_beta:
        _, semi, _ = weighted_norm_values(hess[beta], alpha, pairs)
        semi_sum += semi
    rhs = 0.5 * semi_sum * pairs.dist_pow(2.0 + alpha)

    scale = max(1.0, float(np.abs(f).max()))
    # Gathers write into two reused buffers.  Pair indices are in range, and
    # mode="clip" skips the scratch copy of `out` that take's default makes.
    taylor, term = np.empty(i.shape[0]), np.empty(i.shape[0])
    worst = 0.0
    for base, target, grad_op in ((j, i, np.add), (i, j, np.subtract)):
        np.take(f, base, out=taylor, mode="clip")
        for d in range(n):
            np.take(grads[d], base, out=term, mode="clip")
            term *= steps[d]
            grad_op(taylor, term, out=taylor)
        for beta in hess_beta:
            np.take(hess[beta], base, out=term, mode="clip")
            if max(beta) == 2:
                term *= 0.5
                term *= squares[beta.index(2)]
            else:
                d1, d2 = [k for k, v in enumerate(beta) if v == 1]
                term *= steps[d1]
                term *= steps[d2]
            taylor += term
        np.take(f, target, out=term, mode="clip")
        lhs = np.subtract(term, taylor, out=taylor)
        np.abs(lhs, out=lhs)
        live = lhs > _EPS * scale
        with np.errstate(divide="ignore", invalid="ignore"):
            lhs /= rhs
        lhs[~live] = 0.0
        worst = max(worst, float(lhs.max()))
    return worst


def taylor_remainder_holds(ratio: float) -> bool:
    """Verdict of the remainder bound on a :func:`taylor_remainder_ratio`."""
    return ratio <= 1.0 + 1e-9


def comparison_base(grid) -> float:
    """The constant 3 n R of the norm comparison lemma."""
    return 3.0 * grid.n * grid.R


def zero_jet_norm(field: ScalarField, alpha: float,
                  pairs: PairSet) -> JetNormReport:
    """:func:`jet_norm` of a field whose value and gradient vanish at 0.

    Raises ValueError unless the zero-jet condition holds, checked with the
    analytic derivatives at the origin node.
    """
    if field.analytic_derivs is None:
        raise ValueError("zero_jet_norm needs analytic_derivs")
    grid = field.grid
    origin = grid.nodes[grid.origin_index:grid.origin_index + 1]
    scale = max(1.0, float(np.abs(field.values).max()))
    v0 = float(field.analytic_derivs(tuple(0 for _ in range(grid.n)), origin)[0])
    if abs(v0) > 1e-10 * scale:
        raise ValueError(f"field value at origin is {v0}, not 0")
    for beta in multi_indices(grid.n, 1):
        g0 = float(field.analytic_derivs(beta, origin)[0])
        if abs(g0) > 1e-10 * scale:
            raise ValueError(f"field gradient at origin is nonzero: {g0}")
    return jet_norm(field, alpha, pairs)


def norm_comparison_holds(orders, base: float) -> bool:
    """Verdict of the comparison lemma on the jet norms, with base = 3 n R."""
    top = orders[2]
    return _within(orders[0], base**2 * top) and _within(orders[1], base * top)
