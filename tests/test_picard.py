"""Fixed-point sweep machinery and the adaptive solve driver."""

import functools
import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetsolve import (
    HarmonicPolynomial,
    IterateEscaped,
    JetSpec,
    KobayashiQuery,
    LatticeBall,
    NoConvergence,
    OracleFailure,
    PoissonSystem,
    SolveConfig,
    SolveFailure,
    SystemDef,
    build_grid,
    build_pair_set,
    build_system,
    coefficient_deviation_sup,
    diagonalize,
    estimate,
    harmonic_map_system,
    hyperbolic_disk_target,
    make_state,
    minimal_surface_system,
    picard_map,
    picard_solve,
    poisson_system,
    prescribed_mean_curvature_system,
    residual_check,
    shift_jet,
    solve_system,
    solver_norm,
    source_term,
    sphere_stereographic_target,
)
import jetsolve.grid as grid_module
import jetsolve.oracle as oracle_module
import jetsolve.picard as picard_module
import jetsolve.potential as potential_module
from jetsolve.grid import fd_values, multi_indices
from jetsolve.holder import _rows, max_weighted_norm
from jetsolve.oracle import (max_weighted_norm_reference,
                             run_attempt_reference, source_term_reference)
from jetsolve.picard import (GAMMA0_FLOOR, _origin_jet_polynomial,
                             _zero_state, origin_jet_magnitudes,
                             seed_field_values)
from jetsolve.probes import potential_probes


# ---------------------------------------------------------------------------
# harmonic seed polynomials


def test_harmonic_polynomial_accepts_standard_harmonics():
    for terms in [
        {(2, 0): 1.0, (0, 2): -1.0},          # x^2 - y^2
        {(1, 1): 2.0},                          # 2xy
        {(3, 0): 1.0, (1, 2): -3.0},            # x^3 - 3xy^2
        {(1, 0): 0.7, (0, 0): -2.0},            # affine
    ]:
        hp = HarmonicPolynomial(terms)
        assert hp.dimension == 2


def test_harmonic_polynomial_rejects_non_harmonic():
    with pytest.raises(ValueError):
        HarmonicPolynomial({(2, 0): 1.0})  # lap = 2
    with pytest.raises(ValueError):
        HarmonicPolynomial({(2, 0): 1.0, (0, 2): -0.5})


def test_harmonic_polynomial_rejects_high_degree():
    with pytest.raises(ValueError):
        HarmonicPolynomial({(4, 0): 1.0, (0, 4): 1.0, (2, 2): -6.0})


def test_harmonic_polynomial_evaluate():
    hp = HarmonicPolynomial({(2, 0): 1.0, (0, 2): -1.0})
    pts = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 2.0]])
    np.testing.assert_allclose(hp.evaluate(pts), [1.0, 0.0, -4.0])


def test_harmonic_polynomial_pairs_form_round_trip():
    hp = HarmonicPolynomial([[(1, 1, 0), 3.0]])
    assert hp.dimension == 3
    again = HarmonicPolynomial(hp.to_jsonable())
    pts = np.array([[0.2, -0.4, 1.0]])
    np.testing.assert_allclose(hp.evaluate(pts), again.evaluate(pts))


@pytest.mark.parametrize("terms", [
    [[[1.5, 1], 1.0]],           # a fractional exponent is not truncated
    [[[True, 1], 1.0]],          # nor is a bool read as 1
    {(1, np.True_): 1.0},
    [[[1, 1], True]],            # nor is a bool coefficient read as 1.0
])
def test_harmonic_polynomial_rejects_bools_and_fractions(terms):
    with pytest.raises(ValueError, match="not an integral|not a real"):
        HarmonicPolynomial(terms)


def test_harmonic_polynomial_sums_repeated_exponents():
    # both forms read each pair's exponents as integers and add repeats up
    pairs = [[[1, 1], 1.0], [[1.0, np.int64(1)], 2.0]]
    hp = HarmonicPolynomial(pairs)
    assert hp.terms == (((1, 1), 3.0),)
    assert all(type(v) is int for v in hp.terms[0][0])
    assert HarmonicPolynomial({(1.0, 1): 3}).terms == hp.terms


@pytest.mark.parametrize("key", ["R0", "R_min", "alpha", "tol", "gamma0"])
def test_solve_config_stores_real_fields_as_floats(key):
    cfg = SolveConfig(**{"R0": 1, key: np.float32(0.5)})
    assert type(getattr(cfg, key)) is float and getattr(cfg, key) == 0.5
    assert type(cfg.R0) is float


def test_seed_field_values_shapes(grid2):
    hp = HarmonicPolynomial({(1, 1): 1.0})
    vals = seed_field_values([hp], grid2, 1)
    assert vals.shape == (grid2.node_count, 1)
    np.testing.assert_allclose(vals[grid2.origin_index], 0.0, atol=1e-15)
    zero = seed_field_values(None, grid2, 2)
    assert zero.shape == (grid2.node_count, 2)
    assert not zero.any()


# ---------------------------------------------------------------------------
# the sweep: origin-jet subtraction


def test_jet_subtraction_kills_affine_and_cross_terms(grid2):
    # value + gradient + cross second-order terms are exactly removable
    vals = 1.0 + grid2.nodes[:, 0] + grid2.nodes[:, 0] * grid2.nodes[:, 1]
    poly = _origin_jet_polynomial(grid2, vals)
    np.testing.assert_allclose(vals - poly, 0.0, atol=1e-10)


def test_jet_subtraction_keeps_pure_squares(grid2):
    vals = grid2.nodes[:, 0] ** 2
    poly = _origin_jet_polynomial(grid2, vals)
    np.testing.assert_allclose(poly, 0.0, atol=1e-12)


def test_jet_subtraction_is_linear(grid2, rng):
    u = rng.normal(size=grid2.node_count)
    v = rng.normal(size=grid2.node_count)
    pu = _origin_jet_polynomial(grid2, u)
    pv = _origin_jet_polynomial(grid2, v)
    puv = _origin_jet_polynomial(grid2, 2.0 * u - 3.0 * v)
    np.testing.assert_allclose(puv, 2.0 * pu - 3.0 * pv, atol=1e-10)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_sweep_output_has_zero_origin_jet(seed):
    rng = np.random.default_rng(seed)
    grid = build_grid(2, 1.0, 13)
    system = diagonalize(poisson_system(
        2, const=float(rng.normal()), linear=rng.normal(size=2).tolist()))
    state = make_state(grid, rng.normal(size=(grid.node_count, 1)) * 0.1)
    new = picard_map(system, state, np.zeros((grid.node_count, 1)))
    value_mag, grad_mag = origin_jet_magnitudes(make_state(grid, new))
    assert value_mag <= 1e-10
    assert grad_mag <= 1e-10


@pytest.mark.parametrize("n,res,m", [(2, 17, 3), (2, 41, 2), (3, 9, 3)])
def test_solver_norm_is_order_two_jet_norm(n, res, m, rng):
    # res 41 in 2-d exceeds the pair cap, so the pairs are sampled
    grid = build_grid(n, 0.8, res)
    pairs = build_pair_set(grid, seed=3)
    vals = rng.normal(size=(grid.node_count, m))
    # every second derivative of every component, as separate columns
    # (the state's order2, bitwise): a max is exact, so the max of their
    # norms is bitwise the same, and within rounding of the full scan on
    # the nodes' own distances
    hessian = np.concatenate([fd_values(grid, vals, beta)
                              for beta in multi_indices(n, 2)], axis=1)
    order2 = make_state(grid, vals).order2
    np.testing.assert_array_equal(order2, hessian)
    norm = solver_norm(order2, 0.4, pairs)
    assert norm.hex() == max_weighted_norm(hessian, 0.4, pairs).hex()
    expected = max_weighted_norm_reference(hessian, 0.4, pairs)
    assert abs(norm - expected) <= 1e-12 * expected


@pytest.mark.parametrize("n,res,m", [(2, 33, 1), (2, 33, 3), (3, 13, 2)])
def test_order2_reaches_the_engine_without_a_copy(n, res, m, rng):
    # order2 is the transpose of contiguous rows (k, N), which the Hoelder
    # engine reads in place; so are the zero state's and a difference of
    # two iterates'.  The solver norm is bitwise that of a C-ordered copy.
    grid = build_grid(n, 1.0, res)
    pairs = build_pair_set(grid, seed=1)
    a, b = (make_state(grid, rng.normal(size=(grid.node_count, m)))
            for _ in range(2))
    for order2 in (a.order2, b.order2 - a.order2,
                   _zero_state(grid, m).order2):
        assert order2.T.flags.c_contiguous
        rows = _rows(order2, 0.4, pairs, (2,))[0]
        assert np.shares_memory(rows, order2)
        want = solver_norm(np.ascontiguousarray(order2), 0.4, pairs)
        assert solver_norm(order2, 0.4, pairs).hex() == want.hex()


def _per_beta(grid, vals, beta):
    """One multi-index's derivative as fd_values computed it per beta: its
    rows of the stencil table gathered, weighted, summed segment by segment
    and divided by h^|beta|."""
    table = grid_module.stencil_table(grid)
    N = grid.node_count
    start = table.betas.index(beta) * N
    ptr = table.indptr[start:start + N + 1]
    lo, hi = ptr[0], ptr[-1]
    w = table.weight[lo:hi].reshape((-1,) + (1,) * (vals.ndim - 1))
    out = np.add.reduceat(vals[table.index[lo:hi]] * w, ptr[:-1] - lo, axis=0)
    out /= grid.h**sum(beta)
    return out


# 2D and 3D grids at R = 1 and at radii that are no power of two, with
# least-squares rows on all of them
_ONE_PASS_GRIDS = [(2, 1.0, 21), (2, 0.7, 33), (3, 1.0, 13), (3, 1.3, 9)]


@pytest.mark.parametrize("n,R,res", _ONE_PASS_GRIDS)
@pytest.mark.parametrize("m", [None, 3])
def test_one_pass_derivatives_match_per_beta(n, R, res, m, rng):
    # make_state (its order-2 columns too) and fd_values read every
    # multi-index off one pass over the table: the same segments, summed in
    # the same order and divided the same way, so bitwise the per-beta
    # derivatives
    grid = build_grid(n, R, res)
    shape = (grid.node_count,) if m is None else (grid.node_count, m)
    vals = rng.normal(size=shape)
    cols = vals[:, None] if m is None else vals
    state = make_state(grid, vals)
    for d, beta in enumerate(multi_indices(n, 1)):
        want = _per_beta(grid, vals, beta)
        np.testing.assert_array_equal(fd_values(grid, vals, beta), want)
        np.testing.assert_array_equal(state.grad[:, :, d],
                                      _per_beta(grid, cols, beta))
    hessian = []
    for beta in multi_indices(n, 2):
        want = _per_beta(grid, vals, beta)
        np.testing.assert_array_equal(fd_values(grid, vals, beta), want)
        i, j = [d for d, k in enumerate(beta) for _ in range(k)]
        hessian.append(_per_beta(grid, cols, beta))
        np.testing.assert_array_equal(state.hess[:, :, i, j], hessian[-1])
        np.testing.assert_array_equal(state.hess[:, :, j, i], hessian[-1])
    np.testing.assert_array_equal(
        grid_module.fd_derivatives(grid, vals),
        np.stack([_per_beta(grid, vals, beta)
                  for beta in multi_indices(n, 1) + multi_indices(n, 2)]))
    np.testing.assert_array_equal(state.order2,
                                  np.concatenate(hessian, axis=1))
    pairs = build_pair_set(grid, seed=2)
    want = max_weighted_norm(np.concatenate(hessian, axis=1), 0.4, pairs)
    assert solver_norm(state.order2, 0.4, pairs).hex() == want.hex()


@pytest.mark.parametrize("n,R,res", _ONE_PASS_GRIDS)
@pytest.mark.parametrize("m", [1, 2, 6])
def test_zero_state_is_the_state_of_zeros(n, R, res, m):
    # each attempt starts from the zero iterate without an FD pass: every
    # table is bitwise that of make_state, each zero positive
    grid = build_grid(n, R, res)
    got = _zero_state(grid, m)
    want = make_state(grid, np.zeros((grid.node_count, m)))
    assert got.grid is grid
    for name in ("values", "grad", "hess", "order2"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
        assert not np.signbit(a).any(), name


@pytest.mark.parametrize("n,R,res", _ONE_PASS_GRIDS + [(2, 0.375, 33),
                                                       (3, 0.375, 13)])
@pytest.mark.parametrize("m", [None, 1, 2])
def test_jet_polynomial_matches_power_monomials(n, R, res, m, rng):
    # the cached monomials x_i and x_i * x_j on the unit nodes are bitwise
    # the values of np.prod(unit_nodes ** beta, axis=1), and the one gather
    # of the origin's stencil rows gives bitwise the coefficients of one
    # fd_values(..., node=o) call per multi-index, each scaled by
    # R^|beta|; at R = 1 that is the jet on the grid's own nodes, bitwise,
    # and at any R within rounding of it
    grid = build_grid(n, R, res)
    shape = (grid.node_count,) if m is None else (grid.node_count, m)
    vals = rng.normal(size=shape)
    o = grid.origin_index
    want = np.zeros_like(vals) + vals[o]
    on_nodes = want.copy()
    mixed = [b for b in multi_indices(n, 2) if max(b) == 1]
    for beta in multi_indices(n, 1) + mixed:
        mono = np.prod(grid.ball.unit_nodes ** np.asarray(beta), axis=1)
        coeff = fd_values(grid, vals, beta, node=o)
        want += np.multiply.outer(mono, coeff * R**sum(beta))
        on_nodes += np.multiply.outer(
            np.prod(grid.nodes ** np.asarray(beta), axis=1), coeff)
    for _ in range(2):          # built, then read from the ball's cache
        got = _origin_jet_polynomial(grid, vals)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    if R == 1.0:
        np.testing.assert_array_equal(got, on_nodes)
    np.testing.assert_allclose(got, on_nodes, rtol=0,
                               atol=1e-13 * np.abs(on_nodes).max())


@functools.lru_cache(maxsize=None)
def _grid_and_pairs(n, res):
    grid = build_grid(n, 0.8, res)
    return grid, build_pair_set(grid, seed=5)


@pytest.mark.parametrize("n,res,complete", [
    (2, 9, True), (2, 33, False), (3, 7, True), (3, 13, False)])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), scale=st.floats(-8.0, 2.0))
def test_solver_norm_is_subadditive(n, res, complete, seed, scale):
    # the lazy iterate norms of the solve rest on this triangle inequality,
    # norm(new) <= norm(f) + norm(new's columns - f's), the increment as the
    # solve measures it; cubics plus noise make the stencils cancel large
    # values
    grid, pairs = _grid_and_pairs(n, res)
    assert pairs.complete == complete
    rng = np.random.default_rng(seed)

    def field(size):
        cubic = grid.nodes @ rng.normal(size=(n, 2))
        return (cubic**3 + rng.normal(size=(grid.node_count, 2))
                * 10.0**rng.uniform(-8.0, 0.0)) * size

    a, b = field(1.0), field(10.0**scale)
    f = make_state(grid, a).order2
    new = make_state(grid, a + b).order2
    total = solver_norm(f, 0.5, pairs) + solver_norm(new - f, 0.5, pairs)
    assert solver_norm(new, 0.5, pairs) <= total * (1.0 + 1e-9)


@pytest.mark.parametrize("n,res,complete", [
    (2, 9, True), (2, 33, False), (3, 7, True), (3, 13, False)])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), scale=st.floats(-12.0, 0.0))
def test_increment_of_columns_matches_norm_of_difference(n, res, complete,
                                                         seed, scale):
    # the solve's increment, the norm of new's order-2 columns less f's,
    # is the norm of the FD derivatives of new - f up to the rounding of
    # the two differences: within 1e-12 of the two iterates' norms, which a
    # bound relative to the increment itself could not be near convergence
    grid, pairs = _grid_and_pairs(n, res)
    assert pairs.complete == complete
    rng = np.random.default_rng(seed)
    f = (grid.nodes @ rng.normal(size=(n, 2))) ** 3 + rng.normal(
        size=(grid.node_count, 2))
    new = f + rng.normal(size=f.shape) * 10.0**scale
    cols_f = make_state(grid, f).order2
    cols_new = make_state(grid, new).order2
    inc = solver_norm(cols_new - cols_f, 0.5, pairs)
    old = solver_norm(make_state(grid, new - f).order2, 0.5, pairs)
    scale_of = solver_norm(cols_new, 0.5, pairs) + solver_norm(cols_f, 0.5,
                                                               pairs)
    assert abs(inc - old) <= 1e-12 * scale_of


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_solver_norm_propagates_non_finite_values(bad):
    # one non-finite node makes the norm nan or inf, never a finite number
    grid = build_grid(2, 1.0, 9)
    pairs = build_pair_set(grid)
    vals = np.zeros((grid.node_count, 2))
    vals[grid.origin_index + 3, 1] = bad
    with np.errstate(invalid="ignore"):
        norm = solver_norm(make_state(grid, vals).order2, 0.5, pairs)
        hessian = [fd_values(grid, vals, beta)
                   for beta in multi_indices(grid.n, 2)]
        want = max_weighted_norm_reference(np.concatenate(hessian, axis=1),
                                           0.5, pairs)
    assert not np.isfinite(norm)
    assert norm.hex() == want.hex()


@pytest.mark.parametrize("attempt", ["lazy", "eager"])
@pytest.mark.parametrize("sweep", [1, 2])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_iterate_escapes(bad, sweep, attempt, monkeypatch):
    # from its first or its second sweep on, every attempt's iterate has
    # one non-finite node: the attempt must escape on that sweep with a
    # non-finite norm, and the solve must end in IterateEscaped.  On the
    # second sweep the lazy attempt first sees it in the increment.
    real = picard_module.picard_map

    def broken(system, state, seed_vals):
        new = real(system, state, seed_vals)
        if sweep == 2 and not np.any(state.values):
            return new
        new = new.copy()
        new[3, 0] = bad
        return new

    monkeypatch.setattr(picard_module, "picard_map", broken)
    monkeypatch.setattr(oracle_module, "picard_map", broken)
    if attempt == "eager":
        monkeypatch.setattr(picard_module, "_run_attempt",
                            run_attempt_reference)
    monkeypatch.setattr(picard_module, "MAX_GAMMA_DOUBLINGS", 1)
    cfg = SolveConfig(R0=1.0, res=9, seed=0, gamma0=10.0, R_min=0.5)
    with np.errstate(invalid="ignore"), pytest.raises(IterateEscaped) as err:
        solve_system(poisson_system(2, const=1.0), JetSpec.zero(1, 2), cfg)
    report = err.value.report
    assert report.status == "failed:escaped"
    assert [(a.R, a.outcome, a.iterations) for a in report.attempts] == [
        (1.0, "escaped", sweep), (1.0, "escaped", sweep),
        (0.5, "escaped", sweep)]
    assert not any(np.isfinite(a.escape_norm) for a in report.attempts)
    assert not np.isfinite(report.increment_norms[-1])


def test_jet_subtraction_acts_per_component(grid2, rng):
    vals = rng.normal(size=(grid2.node_count, 3))
    poly = _origin_jet_polynomial(grid2, vals)
    for k in range(3):
        np.testing.assert_array_equal(
            poly[:, k], _origin_jet_polynomial(grid2, vals[:, k]))


def test_source_term_signs(grid3):
    # lap(v) = psi + sum b d^2 v  means the potential source is -psi - ...
    system = diagonalize(poisson_system(3, const=2.0))
    state = make_state(grid3, np.zeros((grid3.node_count, 1)))
    src = source_term(system, state)
    np.testing.assert_allclose(src, -2.0, atol=1e-14)


def _node_predicates():
    """Where a synthetic oracle misbehaves: everywhere, or where x0 > 0.3."""
    return (lambda x: np.ones(np.shape(x)[:-1], dtype=bool),
            lambda x: x[..., 0] > 0.3)


def test_source_term_wraps_oracle_exceptions(grid2):
    for breaks in _node_predicates():
        def bad_psi(x, p, q, breaks=breaks):
            if np.any(breaks(x)):
                raise ValueError("synthetic oracle breakage")
            return np.zeros(np.shape(p))

        system = PoissonSystem(
            n=2, m=1, psi=bad_psi,
            b=lambda x, p, q: np.zeros(np.shape(x)[:-1] + (2, 2)),
            P=np.eye(2), P_inv=np.eye(2))
        state = make_state(grid2, np.zeros((grid2.node_count, 1)))
        with pytest.raises(OracleFailure, match="node") as err:
            source_term(system, state)
        first = grid2.nodes[np.argmax(breaks(grid2.nodes))]
        np.testing.assert_array_equal(err.value.node, first)


def test_source_term_rejects_nonfinite(grid2):
    for breaks in _node_predicates():
        system = PoissonSystem(
            n=2, m=1,
            psi=lambda x, p, q, breaks=breaks: np.where(
                breaks(x)[..., None], np.inf, 0.0),
            b=lambda x, p, q: np.zeros(np.shape(x)[:-1] + (2, 2)),
            P=np.eye(2), P_inv=np.eye(2))
        state = make_state(grid2, np.zeros((grid2.node_count, 1)))
        with pytest.raises(OracleFailure) as err:
            source_term(system, state)
        first = grid2.nodes[np.argmax(breaks(grid2.nodes))]
        np.testing.assert_array_equal(err.value.node, first)
        # raised outside a solve, it has no report
        assert err.value.report is None


def test_oracle_failure_mid_solve_keeps_the_history(monkeypatch):
    # the 4th source term is the 3rd sweep of the second attempt: the first
    # attempt stays as the unbroken solve records it, and the second keeps
    # the two sweeps before the failure
    system = prescribed_mean_curvature_system(2, mean_curvature=0.3)
    cfg = SolveConfig(R0=1.0, res=9, gamma0=0.4)
    whole = solve_system(system, None, cfg)
    assert [(a.outcome, a.iterations) for a in whole.attempts] == [
        ("escaped", 1), ("converged", 8)]
    real, calls = picard_module.source_term, []

    def failing(system, state):
        calls.append(None)
        if len(calls) == 4:
            raise OracleFailure("synthetic oracle failure")
        return real(system, state)

    monkeypatch.setattr(picard_module, "source_term", failing)
    with pytest.raises(OracleFailure) as err:
        solve_system(system, None, cfg)
    report = err.value.report
    assert report.status == "failed:oracle_failure"
    assert report.gamma == whole.gamma and report.solution is None
    first, last = report.attempts
    assert _bits(vars(first)) == _bits(vars(whole.attempts[0]))
    assert (last.R, last.gamma_start, last.outcome, last.iterations) == (
        1.0, 0.8, "oracle_failure", 2)
    assert last.increment_norms == whole.attempts[1].increment_norms[:2]
    assert last.ratios == whole.attempts[1].ratios[:1]
    assert last.deviation_sup is None and last.escape_norm is None


def test_deviation_oracle_failure_names_the_node():
    # b raises off a small field: the first sweep's iterate escapes, and
    # the deviation figure on it is the first b call that fails
    def b(x, p, q):
        if np.any(np.abs(p) > 0.05):
            raise ValueError("synthetic oracle breakage")
        return np.zeros(np.shape(x)[:-1] + (2, 2))

    system = PoissonSystem(n=2, m=1, psi=lambda x, p, q: np.ones(np.shape(p)),
                           b=b, P=np.eye(2), P_inv=np.eye(2))
    with pytest.raises(OracleFailure, match="node") as err:
        picard_solve(system, SolveConfig(R0=1.0, res=9, gamma0=1.0))
    grid = build_grid(2, 1.0, 9)
    flat = picard_map(PoissonSystem(
        n=2, m=1, psi=system.psi, b=lambda x, p, q: np.zeros(
            np.shape(x)[:-1] + (2, 2)), P=np.eye(2), P_inv=np.eye(2)),
        _zero_state(grid, 1), np.zeros((grid.node_count, 1)))
    np.testing.assert_array_equal(
        err.value.node, grid.nodes[np.argmax(np.abs(flat[:, 0]) > 0.05)])
    report = err.value.report
    assert report.status == "failed:oracle_failure"
    [attempt] = report.attempts
    assert (attempt.outcome, len(attempt.increment_norms)) == (
        "oracle_failure", 1)
    # the escape was measured before the deviation figure failed
    assert attempt.escape_norm > attempt.gamma_start
    assert attempt.deviation_sup is None


def _breaking(name, value, where):
    """Oracle `name` that returns value(x, p, q), but raises where
    where(x, p) holds at some point of its batch."""
    def oracle(x, p, q):
        if np.any(where(np.asarray(x), np.asarray(p))):
            raise ValueError(f"{name} breaks")
        return value(x, p, q)
    return oracle


def _eye2(x, p, q):
    return np.broadcast_to(np.eye(2), np.shape(x)[:-1] + (2, 2))


def _zeros2(x, p, q):
    return np.zeros(np.shape(x)[:-1] + (2, 2))


def _ones(x, p, q):
    return np.ones(np.shape(p))


def _at_origin(x, p):  # the single-point calls at the zero jet
    return np.ndim(x) == 1


def _right(x, p):
    return x[..., 0] > 0.3


def _off_zero(x, p):  # not on the zero iterate, but on the first sweep's
    return np.abs(p[..., 0]) > 0.05


def _poisson(psi=_ones, b=_zeros2):
    return PoissonSystem(n=2, m=1, psi=psi, b=b, P=np.eye(2),
                         P_inv=np.eye(2))


def _solve(a):
    return solve_system(SystemDef(n=2, m=1, a=a, phi=lambda x, p, q: np.zeros(
        np.shape(p)), lam=0.5), None, SolveConfig(R0=1.0, res=9, gamma0=1.0))


def _picard(psi=_ones, b=_zeros2):
    return picard_solve(_poisson(psi, b), SolveConfig(R0=1.0, res=9,
                                                      gamma0=1.0))


_NODES9 = build_grid(2, 1.0, 9).nodes
_FIRST_RIGHT = _NODES9[np.argmax(_right(_NODES9, None))].tolist()

# site: (the failing call, its oracle, a test of the node, the sweeps its
# attempt had finished, or None before the first attempt)
_ORACLE_SITES = {
    "check_ellipticity": (lambda: _solve(_breaking("a", _eye2, _right)),
                          "a", lambda node: node[0] > 0.3, None),
    "diagonalize": (lambda: _solve(_breaking("a", _eye2, _at_origin)),
                    "a", lambda node: node == [0.0, 0.0], None),
    "poisson_b0": (lambda: _poisson(b=_breaking("b", _zeros2, _at_origin)),
                   "b", lambda node: node == [0.0, 0.0], None),
    "psi0": (lambda: _picard(psi=_breaking("psi", _ones, _at_origin)),
             "psi", lambda node: node == [0.0, 0.0], None),
    "source_psi": (lambda: _picard(psi=_breaking("psi", _ones, _right)),
                   "psi", lambda node: node == _FIRST_RIGHT, 0),
    "source_b": (lambda: _picard(b=_breaking("b", _zeros2, _right)),
                 "b", lambda node: node == _FIRST_RIGHT, 0),
    "deviation_b": (lambda: _picard(b=_breaking(
        "b", _zeros2, lambda x, p: _right(x, p) & _off_zero(x, p))),
        "b", lambda node: node[0] > 0.3, 1),
    # psi would break on the iterate left of x0 = 0 and b breaks right of
    # it: the deviation figure's b fails, and the blame is b's alone
    "deviation_b_not_psi": (lambda: _picard(
        psi=_breaking("psi", _ones,
                      lambda x, p: _off_zero(x, p) & (x[..., 0] < 0)),
        b=_breaking("b", _zeros2,
                    lambda x, p: _off_zero(x, p) & (x[..., 0] > 0))),
        "b", lambda node: node[0] > 0, 1),
}


@pytest.mark.parametrize("site", list(_ORACLE_SITES))
def test_every_oracle_site_names_the_oracle_and_node(site):
    run, oracle, node_ok, sweeps = _ORACLE_SITES[site]
    with pytest.raises(OracleFailure) as err:
        run()
    assert f"oracle {oracle} raised ValueError('{oracle} breaks') at node" \
        in str(err.value)
    assert node_ok(err.value.node.tolist())
    # a failure before the first attempt has no history to carry
    if sweeps is None:
        assert err.value.report is None
    else:
        [attempt] = err.value.report.attempts
        assert (attempt.outcome, attempt.iterations) == ("oracle_failure",
                                                         sweeps)


@pytest.mark.parametrize("case", ["escape", "floor", "oracle"])
def test_every_solve_failure_carries_its_history(case):
    system, jet, kwargs, status = {
        "escape": (poisson_system(2, const=50.0), None,
                   dict(gamma0=0.5, R_min=0.5), "failed:escaped"),
        "floor": (minimal_surface_system(2, q_bound=2.5), None,
                  dict(R0=3.0, gamma0=40.0, max_iter=7, R_min=1.0,
                       harmonic_seed=_SADDLE), "failed:max_iter"),
        # on the R0 = 2 disk c0 + c1 x leaves the hyperbolic chart
        "oracle": (harmonic_map_system(2, hyperbolic_disk_target(2)),
                   JetSpec(np.array([0.9, 0.0]), 0.6 * np.eye(2)),
                   dict(R0=2.0), "failed:oracle_failure"),
    }[case]
    with pytest.raises(SolveFailure) as err:
        solve_system(system, jet, SolveConfig(res=9, **kwargs))
    report = err.value.report
    assert report.status == status
    assert report.attempts
    assert report.status == f"failed:{report.attempts[-1].outcome}"
    assert isinstance(err.value, OracleFailure) == (case == "oracle")


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name,params", [
    ("poisson", {"const": [1.5, -0.5], "m": 2}),
    ("minimal_surface", {"q_bound": 2.0}),
    ("prescribed_mean_curvature", {"mean_curvature": 0.7}),
    ("harmonic_map", {"target": "euclidean"}),
    ("harmonic_map", {"target": "sphere"}),
    ("harmonic_map", {"target": "hyperbolic"}),
])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_source_term_matches_node_by_node_reference(n, name, params, seed):
    # batched oracles on all nodes against single-point calls, node by node
    rng = np.random.default_rng(seed)
    if name == "poisson":
        params = {**params, "linear": rng.uniform(-1, 1, size=(2, n))}
    system = build_system(name, n, params)
    jet = JetSpec(rng.uniform(-0.1, 0.1, size=system.m),
                  rng.uniform(-0.2, 0.2, size=(system.m, n)))
    poisson = diagonalize(shift_jet(system, jet))
    grid = build_grid(n, 0.5, 7)
    state = make_state(grid, rng.uniform(-0.05, 0.05,
                                         size=(grid.node_count, system.m)))
    got = source_term(poisson, state)
    want = source_term_reference(poisson, state)
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())


# ---------------------------------------------------------------------------
# closed-form solves


def test_constant_source_quadratic_solution():
    c = 3.0
    cfg = SolveConfig(R0=1.0, res=17, seed=0, gamma0=10.0)
    report = solve_system(poisson_system(3, const=c), JetSpec.zero(1, 3), cfg)
    assert report.status == "converged"
    assert report.iterations <= 2
    grid = report.grid
    want = c * np.einsum("ij,ij->i", grid.nodes, grid.nodes) / 6.0
    got = report.solution[:, 0]
    rel = np.abs(got - want).max() / np.abs(want).max()
    assert rel <= 0.02
    assert report.jet_value <= 1e-10
    assert report.jet_gradient <= 1e-10


def test_linear_source_cubic_solution():
    # psi = d x1 solves to d x1 |x|^2 / 10 in three dimensions (the origin
    # jet of the cubic is zero up to the h^2 slope of the centered stencil)
    d = 1.0
    cfg = SolveConfig(R0=1.0, res=17, seed=0, gamma0=10.0)
    report = solve_system(poisson_system(3, linear=[d, 0.0, 0.0]),
                          JetSpec.zero(1, 3), cfg)
    assert report.status == "converged"
    assert report.iterations <= 2
    grid = report.grid
    r2 = np.einsum("ij,ij->i", grid.nodes, grid.nodes)
    want = d * grid.nodes[:, 0] * r2 / 10.0
    got = report.solution[:, 0]
    rel = np.abs(got - want).max() / np.abs(want).max()
    assert rel <= 0.05


def test_reconstruction_adds_jet_back():
    jet = JetSpec(np.array([0.2]), np.array([[0.3, 0.0]]))
    cfg = SolveConfig(R0=1.0, res=21, seed=0)
    report = solve_system(minimal_surface_system(2), jet, cfg)
    assert report.status == "converged"
    u = report.reconstructed[:, 0]
    x = report.original_coords
    v = report.solution[:, 0]
    np.testing.assert_allclose(u, 0.2 + 0.3 * x[:, 0] + v, atol=1e-12)


# ---------------------------------------------------------------------------
# gamma doubling and radius halving


def test_gamma_doubles_until_the_iterate_fits():
    # psi(0) = 0 keeps gamma at the floor; the solution norm (~1.8) forces
    # exactly two doublings: 0.5 -> 1 -> 2
    cfg = SolveConfig(R0=1.0, res=13, seed=0)
    report = solve_system(poisson_system(3, linear=[1.0, 0.0, 0.0]),
                          JetSpec.zero(1, 3), cfg)
    assert report.status == "converged"
    outcomes = [a.outcome for a in report.attempts]
    assert outcomes == ["escaped", "escaped", "converged"]
    gammas = [(a.gamma_start, a.gamma_end) for a in report.attempts]
    assert gammas == [(0.5, 1.0), (1.0, 2.0), (2.0, 2.0)]
    assert all(a.R == 1.0 for a in report.attempts)
    assert report.solution_norm <= report.gamma + 1e-12


def test_radius_halves_when_contraction_stalls():
    seed = [HarmonicPolynomial({(2, 0): 0.6, (0, 2): -0.6})]
    cfg = SolveConfig(R0=3.0, res=33, seed=0, gamma0=40.0, max_iter=60,
                      harmonic_seed=seed)
    report = solve_system(minimal_surface_system(2, q_bound=2.5),
                          JetSpec.zero(1, 2), cfg)
    assert report.status == "converged"
    assert report.final_R < 3.0
    assert report.attempts[0].outcome in ("no_contraction", "max_iter")
    devs = [a.deviation_sup for a in report.attempts]
    assert all(b < a for a, b in zip(devs, devs[1:]))


def test_old_grid_is_released_before_the_next_is_built(monkeypatch):
    # reference counting alone must free the previous radius's grid (and
    # its pair set), so the process never holds two radii's worth at once
    refs, alive = [], []
    build = picard_module.build_grid

    def tracking_build(*args):
        alive.append([ref() is not None for ref in refs])
        grid = build(*args)
        refs.append(weakref.ref(grid))
        return grid

    monkeypatch.setattr(picard_module, "build_grid", tracking_build)
    cfg = SolveConfig(R0=3.0, res=17, seed=4, gamma0=40.0, max_iter=7,
                      harmonic_seed=_SADDLE)
    gc.disable()
    try:
        report = solve_system(minimal_surface_system(2, q_bound=2.5),
                              JetSpec.zero(1, 2), cfg)
    finally:
        gc.enable()
    assert len({a.R for a in report.attempts}) >= 2
    assert len(alive) >= 2
    assert not any(any(seen) for seen in alive)


def test_halving_builds_every_radius_on_one_ball(monkeypatch):
    # the radii of one solve share one lattice ball, and with it one array
    # of sampled pair ids
    balls, grids, pair_sets = [], [], []
    init = grid_module.LatticeBall.__init__
    build = picard_module.build_grid
    build_pairs = picard_module.build_pair_set

    def counting_init(self, *args):
        balls.append(self)
        init(self, *args)

    def recording_build(*args):
        grids.append(build(*args))
        return grids[-1]

    def recording_pairs(*args, **kwargs):
        pair_sets.append(build_pairs(*args, **kwargs))
        return pair_sets[-1]

    monkeypatch.setattr(grid_module.LatticeBall, "__init__", counting_init)
    monkeypatch.setattr(picard_module, "build_grid", recording_build)
    monkeypatch.setattr(picard_module, "build_pair_set", recording_pairs)
    cfg = SolveConfig(R0=3.0, res=33, seed=4, gamma0=40.0, max_iter=7,
                      harmonic_seed=_SADDLE)
    report = solve_system(minimal_surface_system(2, q_bound=2.5),
                          JetSpec.zero(1, 2), cfg)
    assert len({a.R for a in report.attempts}) == len(grids) >= 2
    assert len(balls) == 1
    assert all(grid.ball is balls[0] for grid in grids)
    assert report.grid is grids[-1]
    assert not pair_sets[0].complete
    ids = pair_sets[0].take_ids()
    assert all(ps.take_ids()[0] is ids[0] for ps in pair_sets)


@pytest.mark.parametrize("res,drawn", [(33, 200_000), (17, 197 * 196 // 2)])
def test_report_gives_the_drawn_pair_count(res, drawn):
    # a sampled set (res 33) scans only the distinct pairs among the 200k
    # it drew, but the report, like the lemma report, gives the drawn count
    cfg = SolveConfig(R0=1.0, res=res, seed=0)
    report = solve_system(poisson_system(2, const=1.0), JetSpec.zero(1, 2),
                          cfg)
    assert report.status == "converged"
    assert report.pair_count == report.summary()["pair_count"] == drawn
    pairs = build_pair_set(report.grid, seed=0)
    assert pairs.drawn == drawn
    assert (pairs.size < drawn) is (res == 33)


def test_solve_rejects_a_ball_of_another_shape():
    cfg = SolveConfig(R0=1.0, res=9, seed=0)
    system = poisson_system(2, const=1.0)
    for ball in (LatticeBall(2, 11), LatticeBall(3, 9)):
        with pytest.raises(ValueError, match="lattice ball"):
            solve_system(system, JetSpec.zero(1, 2), cfg, ball=ball)


def test_floor_exhaustion_raises_with_partial_report(monkeypatch):
    # an unconditionally escaping iterate (psi of order 1 with gamma pinned
    # microscopically) exhausts doublings and halvings
    monkeypatch.setattr(picard_module, "MAX_GAMMA_DOUBLINGS", 1)
    cfg = SolveConfig(R0=1.0, res=9, seed=0, gamma0=1e-6, R_min=0.5,
                      max_iter=5)
    with pytest.raises((IterateEscaped, NoConvergence)) as err:
        solve_system(poisson_system(3, const=5.0), JetSpec.zero(1, 3), cfg)
    report = err.value.report
    assert report is not None
    assert len(report.attempts) >= 2
    assert report.status in ("failed:escaped", "failed:no_convergence")


def test_failed_report_reads_its_last_attempt(monkeypatch):
    # the configuration of test_floor_exhaustion_raises_with_partial_report
    monkeypatch.setattr(picard_module, "MAX_GAMMA_DOUBLINGS", 1)
    cfg = SolveConfig(R0=1.0, res=9, seed=0, gamma0=1e-6, R_min=0.5,
                      max_iter=5)
    with pytest.raises((IterateEscaped, NoConvergence)) as err:
        solve_system(poisson_system(3, const=5.0), JetSpec.zero(1, 3), cfg)
    report = err.value.report
    last = report.attempts[-1]
    assert report.final_R == last.R == 0.5
    assert report.iterations == last.iterations
    assert report.increment_norms is last.increment_norms
    assert report.ratios is last.ratios
    summary = report.summary()
    assert (summary["final_R"], summary["iterations"],
            summary["increment_norms"], summary["contraction_ratios"]) == (
        last.R, last.iterations, last.increment_norms, last.ratios)
    # nothing is stored twice, and what only a converged solve fills is None
    assert {"final_R", "iterations", "increment_norms",
            "ratios"}.isdisjoint(vars(report))
    assert all(getattr(report, key) is None for key in (
        "grid", "solution", "ratio_geomean", "residual", "source_sup",
        "node_residuals", "jet_value", "jet_gradient", "solution_norm",
        "pair_count", "reconstructed", "in_chart"))


_SADDLE = [HarmonicPolynomial({(2, 0): 0.6, (0, 2): -0.6})]
# the sphere jet of the 3D benchmark moved off the chart centre, where
# psi(0) = 0.064 rather than 0
_OFF_CENTRE_SPHERE_JET = JetSpec(np.array([0.5, 0.0]),
                                 np.array([[0.3, 0.0, 0.0], [0.0, 0.1, 0.0]]))
# name -> (system, dimension, config, (outcome, sweeps) of the first attempt)
_ATTEMPT_CASES = {
    # the configuration of test_gamma_doubles_until_the_iterate_fits
    "converged_after_escapes": (
        poisson_system(3, linear=[1.0, 0.0, 0.0]), 3,
        dict(R0=1.0, res=13, seed=0), ("escaped", 1)),
    # the configuration of test_floor_exhaustion_raises_with_partial_report
    "escaped_to_the_floor": (
        poisson_system(3, const=5.0), 3,
        dict(R0=1.0, res=9, seed=0, gamma0=1e-6, R_min=0.5, max_iter=5),
        ("escaped", 1)),
    # the iterate's norm is first measured when its bound nears gamma
    "escape_inside_the_attempt": (
        minimal_surface_system(2, q_bound=2.5), 2,
        dict(R0=3.0, res=17, seed=4, gamma0=6.0, harmonic_seed=_SADDLE),
        ("escaped", 4)),
    "max_iter": (
        minimal_surface_system(2, q_bound=2.5), 2,
        dict(R0=3.0, res=17, seed=4, gamma0=40.0, max_iter=7,
             harmonic_seed=_SADDLE), ("max_iter", 7)),
    # sampled pairs: res 33 has more pairs than the cap
    "no_contraction": (
        minimal_surface_system(2, q_bound=2.5), 2,
        dict(R0=3.0, res=33, seed=0, gamma0=40.0, max_iter=60,
             harmonic_seed=_SADDLE), ("no_contraction", 8)),
}

# cases whose solve allows one gamma doubling, not MAX_GAMMA_DOUBLINGS
_ONE_DOUBLING = {"escaped_to_the_floor"}


def _bits(value):
    """float.hex of every float in a record, so == compares bit patterns."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, list):
        return [_bits(v) for v in value]
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    return value


@pytest.mark.parametrize("case", list(_ATTEMPT_CASES))
def test_lazy_iterate_norms_match_eager_reference(case, monkeypatch):
    system, n, kwargs, first = _ATTEMPT_CASES[case]
    if case in _ONE_DOUBLING:
        monkeypatch.setattr(picard_module, "MAX_GAMMA_DOUBLINGS", 1)

    def run():
        try:
            return solve_system(system, JetSpec.zero(1, n),
                                SolveConfig(**kwargs))
        except (IterateEscaped, NoConvergence) as err:
            return err.report

    lazy = run()
    monkeypatch.setattr(picard_module, "_run_attempt", run_attempt_reference)
    eager = run()
    assert (lazy.attempts[0].outcome, lazy.attempts[0].iterations) == first
    assert lazy.status == eager.status
    assert _bits(lazy.solution_norm) == _bits(eager.solution_norm)
    assert ([_bits(vars(a)) for a in lazy.attempts]
            == [_bits(vars(a)) for a in eager.attempts])


# (system, jet, config); every system has psi(0) != 0, so the C_hat probe
# runs
_PROBE_CASES = {
    "2d_res21_one_radius": (
        prescribed_mean_curvature_system(2, mean_curvature=0.3),
        JetSpec(np.zeros(1), np.array([[0.2, -0.1]])),
        dict(R0=1.0, res=21, seed=4)),
    "2d_res21_halving": (
        prescribed_mean_curvature_system(2, mean_curvature=0.3),
        JetSpec(np.zeros(1), np.array([[0.2, -0.1]])),
        dict(R0=3.0, res=21, seed=4, harmonic_seed=_SADDLE)),
    # the solve's pairs are sampled, the probe's complete
    "3d_res13_sampled": (
        harmonic_map_system(3, sphere_stereographic_target(2)),
        _OFF_CENTRE_SPHERE_JET, dict(R0=1.0, res=13, seed=3)),
    # the probe runs at res 17
    "3d_res21": (
        harmonic_map_system(3, sphere_stereographic_target(2)),
        _OFF_CENTRE_SPHERE_JET, dict(R0=1.0, res=21, seed=3)),
}
# (c_hat, gamma0) as float.hex
_PROBE_PINS = {
    "2d_res21_one_radius": ("0x1.7f3973536e018p-1", "0x1.d739ce78944f2p+0"),
    "3d_res13_sampled": ("0x1.32ccd626442edp-1", "0x1.0000000000000p-1"),
}


@pytest.mark.parametrize("case", list(_PROBE_CASES))
def test_probe_builds_its_own_grid(case, monkeypatch):
    # one grid and one pair set per radius, and one more of each for the
    # probe: its grid of (n, R0, probe resolution) and its seed-0 pair set
    system, jet, kwargs = _PROBE_CASES[case]
    grids, pair_sets = [], []
    build_grid_, build_pairs = (picard_module.build_grid,
                                picard_module.build_pair_set)

    def counting_grid(n, R, res, *ball):
        grids.append((n, R, res))
        return build_grid_(n, R, res, *ball)

    def counting_pairs(grid, seed=0):
        pair_sets.append((grid.R, grid.res, seed))
        return build_pairs(grid, seed=seed)

    monkeypatch.setattr(picard_module, "build_grid", counting_grid)
    monkeypatch.setattr(picard_module, "build_pair_set", counting_pairs)
    config = SolveConfig(**kwargs)
    report = solve_system(system, jet, config)
    n, res = system.n, config.res
    probe_res = picard_module._probe_res(n, res)
    radii = list(dict.fromkeys(a.R for a in report.attempts))
    assert grids == ([(n, config.R0, probe_res)]
                     + [(n, R, res) for R in radii])
    assert pair_sets == ([(config.R0, probe_res, 0)]
                         + [(R, res, config.seed) for R in radii])
    if "halving" in case:
        assert len(radii) == 3
    assert isinstance(report.c_hat, float)
    assert report.gamma0 == max(4.0 * report.c_hat * report.psi_origin,
                                GAMMA0_FLOOR)
    if case in _PROBE_PINS:
        assert (report.c_hat.hex(), report.gamma0.hex()) == _PROBE_PINS[case]


def _kobayashi_radius(config):
    """Solve one radius of a Kobayashi search: the hyperbolic disk, a
    conformal jet at the chart centre."""
    query = KobayashiQuery(hyperbolic_disk_target(2), np.zeros(2),
                           np.array([0.4, 0.0]), max_steps=1)
    est = estimate(query, solve_config=config)
    assert [o.success for o in est.outcomes] == [True]


def _solving(system, jet):
    return functools.partial(solve_system, system, jet)


# name -> (run(config), dimension, config, psi(0) == 0)
_ORIGIN_SOURCE_CASES = {
    "2d_minimal_surface_res21": (
        _solving(minimal_surface_system(2, q_bound=2.5),
                 JetSpec(np.zeros(1), np.array([[0.2, -0.1]]))),
        2, dict(R0=1.0, res=21, seed=4), True),
    "3d_sphere_centre_res13": (
        _solving(harmonic_map_system(3, sphere_stereographic_target(2)),
                 JetSpec(np.zeros(2),
                         np.array([[0.3, 0.0, 0.0], [0.0, 0.1, 0.0]]))),
        3, dict(R0=1.0, res=13, seed=3), True),
    "kobayashi_radius": (_kobayashi_radius, 2, dict(res=21, seed=0), True),
    # the control: off the chart centre psi(0) = 0.064 and the probe runs
    "3d_sphere_off_centre_res13": (
        _solving(harmonic_map_system(3, sphere_stereographic_target(2)),
                 _OFF_CENTRE_SPHERE_JET),
        3, dict(R0=1.0, res=13, seed=3), False),
}


@pytest.mark.parametrize("case", list(_ORIGIN_SOURCE_CASES))
def test_zero_origin_source_skips_the_probe(case, monkeypatch):
    # psi(0) = 0 fixes gamma0 at the floor whatever C_hat is, so no probe
    # grid, probe norm or potential Hessian pass is spent on measuring it
    run, n, kwargs, vanishes = _ORIGIN_SOURCE_CASES[case]
    calls = {"check": 0, "hessian": 0, "grids": 0}
    reports = []

    def counting(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            calls[key] += 1
            return fn(*args, **kw)
        return wrapper

    def recording_solve(*args):
        reports.append(solve(*args))
        return reports[-1]

    def hessian_pass(*args, **kw):
        # every potential pass that convolves the Hessian kernels, whichever
        # entry point asked for it
        calls["hessian"] += bool(kw.get("hess"))
        return apply_potential(*args, **kw)

    solve = picard_module.picard_solve
    check = potential_module.check_potential_norm_bound
    apply_potential = potential_module._apply_potential
    monkeypatch.setattr(picard_module, "picard_solve", recording_solve)
    monkeypatch.setattr(picard_module, "check_potential_norm_bound",
                        counting("check", check))
    monkeypatch.setattr(potential_module, "_apply_potential", hessian_pass)
    monkeypatch.setattr(picard_module, "build_grid",
                        counting("grids", picard_module.build_grid))
    run(SolveConfig(**kwargs))
    (report,) = reports
    if not vanishes:
        assert report.psi_origin > 0.0
        assert isinstance(report.c_hat, float)
        assert calls["check"] == 1 and calls["hessian"] == 1
        assert report.gamma0 == max(4.0 * report.c_hat * report.psi_origin,
                                    GAMMA0_FLOOR)
        return
    assert report.status == "converged"
    assert report.psi_origin == 0.0
    assert report.c_hat is None
    assert report.gamma0 == GAMMA0_FLOOR
    radii = len({a.R for a in report.attempts})
    assert calls == {"check": 0, "hessian": 0, "grids": radii}
    # what the probe would have read: the floor wins for its C_hat too
    config = report.config
    probe_pairs = build_pair_set(
        build_grid(n, config.R0, picard_module._probe_res(n, config.res)))
    c_hat = max(check(potential_probes(n), config.alpha, probe_pairs).values())
    assert (max(4.0 * c_hat * 0.0, GAMMA0_FLOOR).hex()
            == GAMMA0_FLOOR.hex())


# ---------------------------------------------------------------------------
# coefficient deviation


def _coupled_deviation_system(n):
    """A Poisson form whose b mixes x, p and q in every entry by elementwise
    products alone, so a batched call and a per-node call round alike."""
    def b(x, p, q):
        return (x[..., :, None] * q[..., 0, None, :]
                + p[..., 1, None, None] * q[..., 1, :, None])

    return PoissonSystem(n=n, m=2, psi=lambda x, p, q: np.zeros(np.shape(p)),
                         b=b, P=np.eye(n), P_inv=np.eye(n))


@pytest.mark.parametrize("n,res", [(2, 13), (3, 9)])
def test_deviation_sup_is_the_node_max_of_b(n, res):
    system = _coupled_deviation_system(n)
    grid = build_grid(n, 0.8, res)
    x = grid.nodes
    state = make_state(grid, np.stack([np.sin(x @ np.arange(1.0, n + 1)),
                                       x[:, 0] * x[:, -1] + 0.3], axis=1))
    want = max(float(np.abs(system.b(x[i], state.values[i],
                                     state.grad[i])).max())
               for i in range(grid.node_count))
    assert want > 0
    assert coefficient_deviation_sup(system, state) == want


def test_solves_differ_in_no_seed_on_a_complete_pair_set():
    # res 9 stores every pair, so the pair sample, the only reader of
    # SolveConfig.seed, is the same for every seed, and so is the summary.
    # b = -0.1 x1 x2 I peaks off the axes, where a seeded draw of the box
    # would find a different largest |b| for each seed.
    def a(x, p, q):
        return (1.0 + 0.1 * x[..., 0] * x[..., 1])[..., None, None] * np.eye(2)

    system = SystemDef(n=2, m=1, a=a, lam=0.5,
                       phi=lambda x, p, q: np.ones(np.shape(p)))
    texts = []
    for seed in (0, 5):
        config = SolveConfig(res=9, seed=seed, gamma0=5.0)
        assert build_pair_set(build_grid(2, config.R0, 9), seed=seed).complete
        report = solve_system(system, None, config)
        assert report.status == "converged"
        assert report.attempts[-1].deviation_sup > 0
        texts.append(json.dumps(report.summary(), sort_keys=True))
    assert texts[0] == texts[1]


# ---------------------------------------------------------------------------
# residuals and reporting


def test_residual_zero_for_exact_quadratic(grid3):
    system = diagonalize(poisson_system(3, const=3.0))
    vals = 3.0 * np.einsum("ij,ij->i", grid3.nodes, grid3.nodes)[:, None] / 6.0
    rep = residual_check(system, make_state(grid3, vals))
    assert rep.residual_sup <= 1e-10
    assert rep.source_sup == pytest.approx(3.0)
    # residuals are only defined on interior nodes
    assert np.isnan(rep.node_residuals[~grid3.interior_mask]).all()


def test_report_summary_is_json_ready():
    cfg = SolveConfig(R0=1.0, res=13, seed=0, gamma0=10.0)
    report = solve_system(poisson_system(2, const=1.0), JetSpec.zero(1, 2),
                          cfg)
    text = json.dumps(report.summary(), sort_keys=True)
    assert "converged" in text


def test_picard_solve_accepts_prediagonalized():
    system = diagonalize(poisson_system(2, const=1.0))
    cfg = SolveConfig(R0=1.0, res=13, seed=0, gamma0=5.0)
    report = picard_solve(system, cfg)
    assert report.status == "converged"


# ---------------------------------------------------------------------------
# configuration validation


@pytest.mark.parametrize("kwargs", [
    {"res": 12},                 # even
    {"res": 3},                  # too small
    {"alpha": 1.0},
    {"alpha": 0.0},
    {"R0": 0.0},
    {"tol": 0.0},
    {"max_iter": 0},
    {"R0": float("nan")},
    {"gamma0": -1.0},
    {"R_min": 2.0},              # above R0
    {"R0": float("inf")},
    {"tol": float("nan")},
    {"tol": float("inf")},
    {"gamma0": float("nan")},
    {"gamma0": float("inf")},
    {"seed": -1},
    {"res": 21.5},               # integer fields take no fractions ...
    {"max_iter": 2.5},
    {"seed": 1.5},
    {"max_iter": True},          # ... and no bools
    {"R0": True},                # nor do the real fields, though 0 < True
    {"R_min": True, "R0": 2.0},
    {"tol": True},
    {"gamma0": True},
    {"R0": True, "gamma0": True, "tol": True, "res": 9},
    {"R0": "2.0"},               # nor strings, which float() would read
    {"alpha": "0.5"},
    {"R0": 1e156, "res": 9},     # (2 R0 / (res - 1))**2 overflows
    {"R0": 1e155, "res": 5},
])
def test_solve_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SolveConfig(**kwargs)


@pytest.mark.parametrize("kwargs,needle", [
    # (2 r / (res - 1))**2 falls below the smallest normal float at r = R0,
    # at a given R_min, or at the default floor R0 / 64 alone
    ({"R0": 1e-200, "res": 9}, "R0 = "),
    ({"R0": 1e-159, "res": 9}, "R0 = "),
    ({"R0": 1e-150, "R_min": 1e-200, "res": 9}, "R_min = "),
    ({"R0": 1e-152, "res": 9}, "R_min (R0 / 64) = "),
])
def test_solve_config_rejects_a_spacing_that_underflows(kwargs, needle):
    with pytest.raises(ValueError, match="underflows") as err:
        SolveConfig(**kwargs)
    assert str(err.value).startswith(needle)


@pytest.mark.parametrize("key", ["R0", "R_min", "alpha", "tol", "gamma0"])
@pytest.mark.parametrize("flag", [True, np.True_])
def test_solve_config_rejects_bools_in_real_fields(key, flag):
    # float() would read the bool as 1.0, which passes most range checks
    with pytest.raises(ValueError, match=f"{key}: not a real number"):
        SolveConfig(**{key: flag})


def test_solve_config_stores_integer_fields_as_ints():
    for res in (21.0, np.int64(21)):
        cfg = SolveConfig(res=res)
        assert cfg.res == 21 and type(cfg.res) is int


def test_solve_config_radius_floor_default():
    cfg = SolveConfig(R0=2.0)
    assert cfg.radius_floor == pytest.approx(2.0 / 64)
    cfg2 = SolveConfig(R0=2.0, R_min=0.5)
    assert cfg2.radius_floor == 0.5


def test_solve_system_checks_dimensions():
    with pytest.raises(ValueError):
        solve_system(poisson_system(2, const=1.0), JetSpec.zero(1, 3),
                     SolveConfig(res=9))
