"""Newtonian potential quadrature against closed forms and exact identities."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetsolve import (
    LatticeBall,
    build_grid,
    build_pair_set,
    check_potential_norm_bound,
    constant_probe,
    laplacian_consistency,
    newtonian_potential,
    potential_hessian,
    potential_probes,
    quad_weights,
    uniform_ball_potential,
)
import jetsolve.potential as potential_module
from jetsolve.oracle import (convolve_reference, potential_reference,
                             unit_quadrature_reference)


def _rel_sup(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


# ---------------------------------------------------------------------------
# closed-form fixture


@pytest.mark.parametrize("n,res,tol", [(3, 17, 0.03), (2, 17, 0.03), (2, 25, 0.02)])
def test_constant_source_matches_closed_form(n, res, tol):
    grid = build_grid(n, 1.0, res)
    pf = newtonian_potential(constant_probe(n).values(grid), grid)
    want = np.array([uniform_ball_potential(n, 1.0, x) for x in grid.nodes])
    assert _rel_sup(pf.values, want) <= tol


def test_constant_source_error_decreases_with_resolution():
    errs = []
    for res in (17, 25):
        grid = build_grid(3, 1.0, res)
        pf = newtonian_potential(constant_probe(3).values(grid), grid)
        want = np.array([uniform_ball_potential(3, 1.0, x) for x in grid.nodes])
        errs.append(_rel_sup(pf.values, want))
    assert errs[1] < errs[0]


def test_quad_weights_sum_to_ball_volume():
    for n, vol in ((2, np.pi), (3, 4 * np.pi / 3)):
        grid = build_grid(n, 1.0, 17)
        w = quad_weights(grid)
        assert w.sum() == pytest.approx(vol, rel=1e-12)
        assert np.all(w >= 0)


def test_hessian_trace_recovers_source_exactly():
    # the second-derivative kernel is traceless and the diagonal carries
    # -f/n explicitly, so the trace identity is machine-exact
    grid = build_grid(2, 1.0, 13)
    x = grid.nodes
    f = np.sin(x[:, 0]) + x[:, 1] ** 2
    pf = potential_hessian(f, grid)
    trace = np.einsum("nii->n", pf.hess)
    np.testing.assert_allclose(trace, -f, atol=1e-12)


def test_hessian_symmetric():
    grid = build_grid(2, 1.0, 13)
    x = grid.nodes
    pf = potential_hessian(np.exp(0.3 * x[:, 0]) * x[:, 1], grid)
    np.testing.assert_allclose(pf.hess, np.transpose(pf.hess, (0, 2, 1)),
                               atol=1e-12)


# ---------------------------------------------------------------------------
# two-route consistency


@pytest.mark.parametrize("make", [
    lambda p: np.ones(p.shape[0]),
    lambda p: p[:, 0],
    lambda p: np.sin(p[:, 0]),
])
def test_laplacian_routes_agree(make):
    grid = build_grid(2, 1.0, 21)
    f = make(grid.nodes)
    rep = laplacian_consistency(potential_hessian(f, grid), f)
    assert rep["max_relative_gap"] <= 0.05


def test_laplacian_consistency_keys():
    grid = build_grid(2, 1.0, 13)
    f = grid.nodes[:, 0]
    rep = laplacian_consistency(potential_hessian(f, grid), f)
    for key in ("trace_gap", "fd_gap", "route_gap", "max_relative_gap"):
        assert key in rep and np.isfinite(rep[key])


# ---------------------------------------------------------------------------
# norm-bound ratios


def test_potential_norm_ratio_stable_across_radii():
    # the order-2 norm of N(f) against the weighted norm of f should not
    # drift as the ball shrinks; check a 4x radius range at fixed res
    ratios = []
    for R in (1.0, 0.25):
        pairs = build_pair_set(build_grid(2, R, 17), seed=0)
        rep = check_potential_norm_bound(potential_probes(2), 0.5, pairs)
        ratios.append(max(rep.values()))
    hi, lo = max(ratios), min(ratios)
    assert hi / lo < 3.0
    assert hi < 10.0


@pytest.mark.parametrize("n,res", [(2, 17), (2, 33), (3, 9), (3, 17)])
@pytest.mark.parametrize("R", [1.0, 0.375])
def test_hessian_only_pass_is_the_full_pass_hessian(n, res, R):
    # the norm ratios' pass skips the value kernel: each kernel's lines are
    # transformed on their own, so its Hessian is bitwise the full pass's
    grid = build_grid(n, R, res)
    rng = np.random.default_rng(res)
    for shape in [(grid.node_count,), (grid.node_count, 1),
                  (grid.node_count, 6)]:
        F = rng.normal(size=shape)
        alone = potential_module._apply_potential(grid, F, hess=True,
                                                  value=False)
        assert alone.values is None
        assert alone.hess.tobytes() == potential_hessian(F, grid).hess.tobytes()


@pytest.mark.parametrize("n,res", [(2, 13), (3, 9)])
def test_batched_sources_match_columns(n, res):
    grid = build_grid(n, 1.0, res)
    F = np.stack([p.values(grid) for p in potential_probes(n)], axis=1)
    assert F.shape == (grid.node_count, 4)
    values = newtonian_potential(F, grid).values
    pf = potential_hessian(F, grid)
    assert pf.hess.shape == (grid.node_count, n, n, 4)
    for k in range(4):
        column = potential_hessian(F[:, k], grid)
        alone = newtonian_potential(F[:, k], grid).values
        assert _rel_sup(values[:, k], alone) <= 1e-12
        assert _rel_sup(pf.values[:, k], column.values) <= 1e-12
        assert _rel_sup(pf.hess[..., k], column.hess) <= 1e-12


def test_norm_bound_stack_matches_single_probes():
    pairs = build_pair_set(build_grid(2, 1.0, 13), seed=0)
    probes = potential_probes(2)
    together = check_potential_norm_bound(probes, 0.5, pairs)
    for probe in probes:
        alone = check_potential_norm_bound([probe], 0.5, pairs)
        assert alone[probe.name] == pytest.approx(together[probe.name],
                                                  rel=1e-12)


def test_potential_accepts_raw_arrays():
    grid = build_grid(2, 1.0, 9)
    pf = newtonian_potential(np.ones(grid.node_count), grid)
    assert pf.values.shape == (grid.node_count,)
    assert np.all(np.isfinite(pf.values))


@pytest.mark.parametrize("apply", [newtonian_potential, potential_hessian])
def test_potential_rejects_values_of_another_shape(apply):
    # a (2N,) source is not two interleaved columns, nor an (N, 2, 1) one
    # N rows of a matrix: the node axis comes first, with at most one more
    grid = build_grid(2, 1.0, 9)
    N = grid.node_count
    for shape in [(2 * N,), (N - 1,), (N, 2, 1)]:
        with pytest.raises(ValueError, match=f"does not fit {N} nodes"):
            apply(np.ones(shape), grid)


# ---------------------------------------------------------------------------
# the FFT pass against the dense reference


@settings(max_examples=12, deadline=None)
@given(shape=st.sampled_from([(2, 1.0, 13), (2, 0.3, 21), (2, 2.5, 33),
                              (3, 1.0, 9), (3, 0.4, 13), (3, 2.0, 13)]),
       columns=st.sampled_from([None, 1, 3]),
       data_seed=st.integers(0, 2**31 - 1))
# 2 res - 1 = 41 is prime, so the padded box is 45 wide, not 41
@example(shape=(3, 0.5, 21), columns=2, data_seed=7)
def test_fft_pass_matches_dense_reference(shape, columns, data_seed):
    grid = build_grid(*shape)
    rng = np.random.default_rng(data_seed)
    size = (grid.node_count,) if columns is None else (grid.node_count, columns)
    F = rng.normal(size=size) * rng.lognormal()
    want = potential_reference(grid, F, hess=True)
    got = potential_hessian(F, grid)
    for values in (got.values, newtonian_potential(F, grid).values):
        assert values.shape == want.values.shape
        assert np.abs(values - want.values).max() <= (
            1e-12 * np.abs(want.values).max())
    assert got.hess.shape == want.hess.shape
    assert np.abs(got.hess - want.hess).max() <= 1e-12 * np.abs(want.hess).max()


@pytest.mark.parametrize("n,res", [(2, 21), (3, 9)])
def test_cached_spectra_give_bitwise_equal_passes(n, res):
    # the spectra and weights are built once per lattice ball: a pass on
    # a grid whose ball earlier radii warmed is bitwise a pass on a fresh
    # ball, and the Hessian pass, being R-free, is bitwise the same at
    # every radius
    rng = np.random.default_rng(3)
    ball = LatticeBall(n, res)
    warm = build_grid(n, 0.7, res, ball)
    newtonian_potential(rng.normal(size=warm.node_count), warm)
    potential_hessian(rng.normal(size=warm.node_count), warm)
    F = rng.normal(size=(warm.node_count, 2))
    for R in (0.7, 1.3):
        again = potential_hessian(F, build_grid(n, R, res, ball))
        fresh = potential_hessian(F, build_grid(n, R, res))
        np.testing.assert_array_equal(again.values, fresh.values)
        np.testing.assert_array_equal(again.hess, fresh.hess)
        np.testing.assert_array_equal(
            again.hess, potential_hessian(F, build_grid(n, 1.0, res)).hess)


@pytest.mark.parametrize("n,R,res", [(2, 3.0, 21), (2, 0.375, 17),
                                     (3, 0.75, 13), (3, 1.7, 9)])
def test_rescaled_pass_matches_dense_reference(n, R, res):
    # the pass runs on the ball at R = 1 and rescales; the dense reference
    # sums the kernel at the grid's own nodes with its own self cells, so
    # in 2D it checks the log(R) term.  A source of nonzero mean makes
    # that term large.
    grid = build_grid(n, R, res)
    rng = np.random.default_rng(res)
    F = 1.0 + rng.normal(size=(grid.node_count, 2)) * [0.3, 3.0]
    want = potential_reference(grid, F, hess=True)
    got = potential_hessian(F, grid)
    assert _rel_sup(got.values, want.values) <= 1e-12
    assert _rel_sup(got.hess, want.hess) <= 1e-12


_KOBAYASHI_RADII = [0.25 * 1.5**k for k in range(7)]


@pytest.mark.parametrize("R", _KOBAYASHI_RADII + [0.5, 2.0, 4.0])
def test_quad_weights_are_r_invariant(R):
    # the weights at R are R^n times those at R = 1, whatever the float
    # in-ball test of rim cells would give at R: within one rounding of
    # the product, and bitwise where R is a power of two
    unit = quad_weights(build_grid(2, 1.0, 21))
    w = quad_weights(build_grid(2, R, 21))
    scaled = R**2 * unit
    if np.log2(R).is_integer():
        assert w.tobytes() == scaled.tobytes()
    assert np.abs(w - scaled).max() <= 1e-15 * np.abs(scaled).max()
    assert w.sum() == pytest.approx(np.pi * R**2, rel=1e-13)


# ---------------------------------------------------------------------------
# the pruned transforms and the rim counts against the paths they replaced


@pytest.mark.parametrize("n,res", [(2, 9), (2, 21), (2, 33), (3, 7), (3, 13),
                                   (3, 21)])
@pytest.mark.parametrize("m", [1, 2, 6])
def test_convolve_matches_whole_box_transform(n, res, m):
    # the pruned transforms skip only lines that are zero or never read and
    # take the axes in rfftn's and irfftn's order, so each remaining line
    # is the same 1D transform of the same data: bitwise, for the value
    # kernel alone and with the Hessian kernels (taking the forward axes
    # in another order moves 3D answers by about 1e-13)
    ball = LatticeBall(n, res)
    spectra, _ = potential_module._kernel_spectra(ball, hess=True)
    source = np.random.default_rng(res * 10 + m).normal(
        size=(ball.node_count, m))
    for kernels in (spectra[:1], spectra):
        got = potential_module._convolve(ball, kernels, source)
        assert got.shape == (kernels.shape[0], m, ball.node_count)
        np.testing.assert_array_equal(
            got, convolve_reference(ball, kernels, source))


@pytest.mark.parametrize("n,res", [(2, r) for r in range(5, 130, 2)]
                         + [(3, r) for r in range(5, 34, 2)])
def test_unit_quadrature_matches_point_cloud(n, res):
    # the per-axis squares summed as the point cloud's einsum summed them
    # ((x^2 + z^2) + y^2 in 3D) count the same subsamples: bitwise weights
    # and self-cell integrals.  A left-to-right sum flips in-ball tests at
    # 3D res 7 and 13, so those cases pin the order.
    ball = LatticeBall(n, res)
    w, self_cell = potential_module._unit_quadrature(ball)
    want_w, want_self = unit_quadrature_reference(ball)
    np.testing.assert_array_equal(w, want_w)
    np.testing.assert_array_equal(self_cell, want_self)
