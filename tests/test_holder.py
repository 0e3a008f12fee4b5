"""Weighted Hoelder norms, jet norms, and the executable norm lemmas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetsolve import (
    PairSet,
    ScalarField,
    build_grid,
    build_pair_set,
    coordinate_probe,
    field_from_callable,
    holder_norm,
    jet_norm,
    lemma_battery,
    multi_indices,
    polynomial,
    taylor_remainder_ratio,
    weighted_norm_values,
    with_zero_jet,
)
from jetsolve.holder import (banach_algebra_holds, comparison_base,
                             norm_comparison_holds, taylor_remainder_holds,
                             zero_jet_norm)
from jetsolve.oracle import taylor_remainder_ratio_reference


# ---------------------------------------------------------------------------
# exact norm values


@pytest.mark.parametrize("R", [0.1, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("n", [2, 3])
def test_coordinate_norm_is_three_radii(R, alpha, n):
    # sup |x_d| = R; the seminorm peaks on the antipodal axis pair at
    # 2R/(2R)^a, so the weighted norm is R + (2R)^a * (2R)^(1-a) = 3R.
    grid = build_grid(n, R, 9)
    pairs = build_pair_set(grid, seed=0)
    for d in range(n):
        f = coordinate_probe(n, d).field(grid)
        got = holder_norm(f, alpha, pairs).weighted
        assert abs(got - 3.0 * R) <= 1e-12 * max(1.0, R)


def test_constant_norm_is_absolute_value(grid2, pairs2):
    f = ScalarField(grid2, np.full(grid2.node_count, -2.5))
    rep = holder_norm(f, 0.5, pairs2)
    assert rep.sup_norm == 2.5
    assert rep.seminorm == 0.0
    assert rep.weighted == 2.5


def test_cubic_jet_norm_frozen_value(grid2, pairs2):
    # f = x1^3 at R = 1: the largest order-2 entry is d11 f = 6 x1 with
    # sup 6 and seminorm 6 (2R)^(1-a), so the weighted norm is
    # 6 + (2R)^a 6 (2R)^(1-a) = 6 + 12 R = 18.
    f = polynomial("x1_cubed", {(3, 0): 1.0}).field(grid2)
    rep = jet_norm(f, 0.5, pairs2)
    assert rep.solver_norm == pytest.approx(18.0, rel=1e-12)
    assert rep.orders[2] >= rep.orders[1] / (3 * 2 * 1.0)


# ---------------------------------------------------------------------------
# norm axioms (property-based)


def _poly_field(grid, rng):
    terms = {}
    for _ in range(rng.integers(1, 4)):
        e = tuple(int(v) for v in rng.integers(0, 3, size=grid.n))
        terms[e] = float(rng.normal())
    return polynomial("rand", terms).field(grid)


def _banach_holds(f, g, alpha, pairs):
    prod = ScalarField(f.grid, f.values * g.values)
    return banach_algebra_holds(holder_norm(f, alpha, pairs).weighted,
                                holder_norm(g, alpha, pairs).weighted,
                                holder_norm(prod, alpha, pairs).weighted)


def _comparison_holds(f, alpha, pairs):
    return norm_comparison_holds(zero_jet_norm(f, alpha, pairs).orders,
                                 comparison_base(f.grid))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.1, 0.9))
def test_norm_homogeneity_and_triangle(seed, alpha):
    grid = build_grid(2, 1.0, 9)
    pairs = build_pair_set(grid, seed=0)
    rng = np.random.default_rng(seed)
    f = _poly_field(grid, rng)
    g = _poly_field(grid, rng)
    c = float(rng.normal())
    nf = holder_norm(f, alpha, pairs).weighted
    ng = holder_norm(g, alpha, pairs).weighted
    scaled = ScalarField(grid, c * f.values)
    summed = ScalarField(grid, f.values + g.values)
    assert holder_norm(scaled, alpha, pairs).weighted == pytest.approx(
        abs(c) * nf, rel=1e-12, abs=1e-12)
    assert holder_norm(summed, alpha, pairs).weighted <= nf + ng + 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_banach_algebra_on_random_polynomials(seed):
    grid = build_grid(2, 1.0, 9)
    pairs = build_pair_set(grid, seed=0)
    rng = np.random.default_rng(seed)
    f = _poly_field(grid, rng)
    g = _poly_field(grid, rng)
    assert _banach_holds(f, g, 0.5, pairs)


def test_banach_algebra_on_battery(grid2, pairs2):
    battery = lemma_battery(2)
    fields = [p.field(grid2) for p in battery[:8]]
    for f in fields:
        for g in fields:
            assert _banach_holds(f, g, 0.5, pairs2)


# ---------------------------------------------------------------------------
# Taylor remainder and comparison lemmas


def test_taylor_ratio_zero_for_quadratics(grid2, pairs2):
    f = polynomial("quad", {(2, 0): 1.0, (1, 1): -2.0, (0, 0): 3.0}).field(grid2)
    assert taylor_remainder_ratio(f, 0.5, pairs2) == 0.0


def test_taylor_remainder_on_battery(grid2, pairs2):
    for probe in lemma_battery(2):
        f = probe.field(grid2)
        ratio = taylor_remainder_ratio(f, 0.5, pairs2)
        assert ratio <= 1.0 + 1e-9, probe.name
        assert taylor_remainder_holds(ratio)


def test_taylor_remainder_3d(grid3, pairs3):
    for probe in lemma_battery(3)[:10]:
        f = probe.field(grid3)
        assert taylor_remainder_holds(
            taylor_remainder_ratio(f, 0.5, pairs3)), probe.name


@pytest.mark.parametrize("n,res", [(2, 9), (3, 9), (2, 33), (3, 17)])
def test_taylor_ratio_matches_reference_bitwise(n, res):
    # res 9 uses every pair; 2-d res 33 and 3-d res 17 sample them
    grid = build_grid(n, 1.0, res)
    pairs = build_pair_set(grid, seed=0)
    assert pairs.complete == (res == 9)
    cubic = polynomial("x1_cubed", {(3,) + (0,) * (n - 1): 1.0}).field(grid)

    def no_hessian(beta, pts):
        if sum(beta) == 2:
            return np.zeros(pts.shape[0])
        return cubic.analytic_derivs(beta, pts)

    # a wrong (zero) Hessian bounds nothing: the ratio is infinite
    fields = [p.field(grid) for p in lemma_battery(n)] + [
        cubic, ScalarField(grid, cubic.values, analytic_derivs=no_hessian)]
    got = [taylor_remainder_ratio(f, 0.5, pairs).hex() for f in fields]
    want = [taylor_remainder_ratio_reference(f, 0.5, pairs).hex()
            for f in fields]
    assert got == want
    assert got[-1] == float("inf").hex()


def test_comparison_needs_zero_jet(grid2, pairs2):
    f = coordinate_probe(2, 0).field(grid2)  # gradient e1 at the origin
    with pytest.raises(ValueError):
        zero_jet_norm(f, 0.5, pairs2)
    g = polynomial("affine", {(0, 0): 1.0}).field(grid2)
    with pytest.raises(ValueError):
        zero_jet_norm(g, 0.5, pairs2)


def test_comparison_on_zero_jet_battery(grid2, pairs2):
    for probe in lemma_battery(2):
        f = with_zero_jet(probe, 2).field(grid2)
        assert _comparison_holds(f, 0.5, pairs2), probe.name


@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_comparison_other_exponents(grid2, pairs2, alpha):
    for probe in lemma_battery(2)[:6]:
        f = with_zero_jet(probe, 2).field(grid2)
        assert _comparison_holds(f, alpha, pairs2), probe.name


# ---------------------------------------------------------------------------
# plumbing


def test_weighted_norm_values_matches_holder_norm(grid2, pairs2, rng):
    vals = rng.normal(size=grid2.node_count)
    sup, semi, weighted = weighted_norm_values(vals, 0.5, pairs2)
    rep = holder_norm(ScalarField(grid2, vals), 0.5, pairs2)
    assert (sup, semi, weighted) == (rep.sup_norm, rep.seminorm, rep.weighted)


@pytest.mark.parametrize("n,res", [(2, 9), (2, 33), (3, 9), (3, 17)])
def test_weighted_norm_values_matches_one_line_scan(n, res):
    # the in-place scan against the plain expression, float.hex-equal, on
    # complete (res 9) and sampled pair sets; a strided column as in
    # solver_norm, and a constant field whose seminorm is 0
    grid = build_grid(n, 1.0, res)
    pairs = build_pair_set(grid, seed=3)
    assert pairs.complete == (res == 9)
    rng = np.random.default_rng(res)
    block = rng.normal(size=(grid.node_count, 3)) * [1.0, 1e-9, 1e6]
    for vals in (*block.T, np.full(grid.node_count, 2.5)):
        for alpha in (0.25, 0.5, 0.9):
            semi = float((np.abs(vals[pairs.first] - vals[pairs.second])
                          / pairs.dist**alpha).max())
            sup = float(np.abs(vals).max())
            weighted = sup + (2.0 * grid.R) ** alpha * semi
            got = weighted_norm_values(vals, alpha, pairs)
            assert [x.hex() for x in got] == [sup.hex(), semi.hex(),
                                              weighted.hex()]


def test_weighted_norm_values_rejects_bad_input(grid2, pairs2):
    n = grid2.node_count
    good = np.ones(n)
    # a longer array would put its extra entries into the sup
    for bad in (np.full(n + 1, 5.0), np.ones(n - 1), np.ones((n, 1))):
        with pytest.raises(ValueError, match="node count"):
            weighted_norm_values(bad, 0.5, pairs2)
    for alpha in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="alpha"):
            weighted_norm_values(good, alpha, pairs2)


def test_jet_norm_homogeneous_in_every_order(grid2, pairs2):
    f = polynomial("mix", {(2, 1): 0.5, (1, 0): -1.0}).field(grid2)
    rep = jet_norm(f, 0.5, pairs2)
    doubled = ScalarField(
        grid2, 2 * f.values,
        analytic_derivs=lambda beta, pts: 2 * f.analytic_derivs(beta, pts))
    rep2 = jet_norm(doubled, 0.5, pairs2)
    for a, b in zip(rep.orders, rep2.orders):
        assert b == pytest.approx(2 * a, rel=1e-12)


def test_multi_indices_complete():
    assert multi_indices(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert len(multi_indices(3, 2)) == 6
    assert len(multi_indices(3, 1)) == 3


def test_alpha_validation(grid2, pairs2):
    f = ScalarField(grid2, np.zeros(grid2.node_count))
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            holder_norm(f, bad, pairs2)


def test_grid_mismatch_rejected(grid2, pairs2):
    other = build_grid(2, 1.0, 9)
    f = ScalarField(other, np.zeros(other.node_count))
    with pytest.raises(ValueError):
        holder_norm(f, 0.5, pairs2)
