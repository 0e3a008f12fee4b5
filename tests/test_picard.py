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
    NoConvergence,
    OracleFailure,
    PairSet,
    PoissonSystem,
    ScalarField,
    SolveConfig,
    build_grid,
    build_pair_set,
    build_system,
    coefficient_deviation_sup,
    diagonalize,
    estimate,
    harmonic_map_system,
    hyperbolic_disk_target,
    jet_norm,
    make_state,
    minimal_surface_system,
    origin_jet_magnitudes,
    picard_map,
    picard_solve,
    poisson_system,
    prescribed_mean_curvature_system,
    residual_check,
    seed_field_values,
    shift_jet,
    solve_system,
    solver_norm,
    source_term,
    sphere_stereographic_target,
)
import jetsolve.oracle as oracle_module
import jetsolve.picard as picard_module
import jetsolve.potential as potential_module
from jetsolve.grid import fd_values, multi_indices
from jetsolve.oracle import (max_weighted_norm_reference,
                             run_attempt_reference, source_term_reference)
from jetsolve.picard import GAMMA0_FLOOR, _origin_jet_polynomial
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
    new, _ = picard_map(system, state, np.zeros((grid.node_count, 1)))
    value_mag, grad_mag = origin_jet_magnitudes(grid, new)
    assert value_mag <= 1e-10
    assert grad_mag <= 1e-10


@pytest.mark.parametrize("n,res,m", [(2, 17, 3), (2, 41, 2), (3, 9, 3)])
def test_solver_norm_is_order_two_jet_norm(n, res, m, rng):
    # res 41 in 2-d exceeds the pair cap, so the pairs are sampled
    grid = build_grid(n, 0.8, res)
    pairs = build_pair_set(grid, seed=3)
    vals = rng.normal(size=(grid.node_count, m))
    # a max is exact, so the max of per-component norms is bitwise the same
    expected = max(jet_norm(ScalarField(grid, vals[:, k]), 0.4,
                            pairs).solver_norm for k in range(m))
    assert solver_norm(grid, vals, 0.4, pairs) == expected


@functools.lru_cache(maxsize=None)
def _grid_and_pairs(n, res):
    grid = build_grid(n, 0.8, res)
    return grid, build_pair_set(grid, seed=5)


@pytest.mark.parametrize("n,res,complete", [
    (2, 9, True), (2, 33, False), (3, 7, True), (3, 13, False)])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), scale=st.floats(-8.0, 2.0))
def test_solver_norm_is_subadditive(n, res, complete, seed, scale):
    # the lazy iterate norms of the solve rest on this triangle inequality;
    # cubics plus noise make the stencils cancel large values
    grid, pairs = _grid_and_pairs(n, res)
    assert pairs.complete == complete
    rng = np.random.default_rng(seed)

    def field(size):
        cubic = grid.nodes @ rng.normal(size=(n, 2))
        return (cubic**3 + rng.normal(size=(grid.node_count, 2))
                * 10.0**rng.uniform(-8.0, 0.0)) * size

    a, b = field(1.0), field(10.0**scale)
    total = solver_norm(grid, a, 0.5, pairs) + solver_norm(grid, b, 0.5, pairs)
    assert solver_norm(grid, a + b, 0.5, pairs) <= total * (1.0 + 1e-9)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_solver_norm_propagates_non_finite_values(bad):
    # one non-finite node makes the norm nan or inf, never a finite number
    grid = build_grid(2, 1.0, 9)
    pairs = build_pair_set(grid)
    vals = np.zeros((grid.node_count, 2))
    vals[grid.origin_index + 3, 1] = bad
    with np.errstate(invalid="ignore"):
        norm = solver_norm(grid, vals, 0.5, pairs)
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
        new, src = real(system, state, seed_vals)
        if sweep == 2 and not np.any(state.values):
            return new, src
        new = new.copy()
        new[3, 0] = bad
        return new, src

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


# (system, jet, config, probe shares the first grid); every system has
# psi(0) != 0, so the C_hat probe runs
_SHARING_CASES = {
    "2d_res21_one_radius": (
        prescribed_mean_curvature_system(2, mean_curvature=0.3),
        JetSpec(np.zeros(1), np.array([[0.2, -0.1]])),
        dict(R0=1.0, res=21, seed=4), True),
    "2d_res21_halving": (
        prescribed_mean_curvature_system(2, mean_curvature=0.3),
        JetSpec(np.zeros(1), np.array([[0.2, -0.1]])),
        dict(R0=3.0, res=21, seed=4, harmonic_seed=_SADDLE), True),
    # sampled pairs: the probe shares the grid but builds its own pair set
    "3d_res13_sampled": (
        harmonic_map_system(3, sphere_stereographic_target(2)),
        _OFF_CENTRE_SPHERE_JET, dict(R0=1.0, res=13, seed=3), True),
    # the probe runs at res 17 on its own grid
    "3d_res21": (
        harmonic_map_system(3, sphere_stereographic_target(2)),
        _OFF_CENTRE_SPHERE_JET, dict(R0=1.0, res=21, seed=3), False),
}


@pytest.mark.parametrize("case", list(_SHARING_CASES))
def test_probe_shares_the_first_solve_grid(case, monkeypatch):
    # one grid per radius when the probe has the solve's resolution, and
    # every report field bitwise that of a run with its own probe grid
    system, jet, kwargs, shares = _SHARING_CASES[case]
    built = []
    build = picard_module.build_grid

    def counting_build(*args):
        built.append(args)
        return build(*args)

    def run():
        built.clear()
        report = solve_system(system, jet, SolveConfig(**kwargs))
        radii = len({a.R for a in report.attempts})
        fields = [report.solution, report.node_residuals,
                  report.reconstructed, report.original_coords]
        return (len(built) - radii, _bits(report.summary()),
                [f.tobytes() for f in fields])

    monkeypatch.setattr(picard_module, "build_grid", counting_build)
    extra, summary, fields = run()
    assert extra == (0 if shares else 1)
    assert summary["c_hat"] is not None
    if "halving" in case:
        assert len({a["R"] for a in summary["attempts"]}) == 3
    choose = picard_module.choose_norm_radius
    monkeypatch.setattr(picard_module, "choose_norm_radius",
                        lambda system, config, *shared: choose(system, config))
    own_extra, own_summary, own_fields = run()
    assert own_extra == 1
    assert own_summary == summary
    assert own_fields == fields


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

    solve = picard_module.picard_solve
    check = potential_module.check_potential_norm_bound
    hessian = potential_module.potential_hessian
    monkeypatch.setattr(picard_module, "picard_solve", recording_solve)
    monkeypatch.setattr(picard_module, "check_potential_norm_bound",
                        counting("check", check))
    monkeypatch.setattr(potential_module, "potential_hessian",
                        counting("hessian", hessian))
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
    probe_grid = build_grid(n, config.R0,
                            picard_module._probe_res(n, config.res))
    c_hat = check(potential_probes(n), probe_grid, config.alpha).max_ratio
    assert (max(4.0 * c_hat * 0.0, GAMMA0_FLOOR).hex()
            == GAMMA0_FLOOR.hex())


def test_probe_reuses_only_its_default_pair_set(monkeypatch):
    # a given pair set replaces the probe's build_pair_set(grid) only when
    # it is that set: complete, and no larger than the default cap
    seen = []
    check = picard_module.check_potential_norm_bound

    def spy(probes, grid, alpha, pairs=None):
        seen.append(pairs)
        return check(probes, grid, alpha, pairs=pairs)

    monkeypatch.setattr(picard_module, "check_potential_norm_bound", spy)
    system = PoissonSystem(
        n=2, m=1, psi=lambda x, p, q: np.ones(np.shape(p)),
        b=lambda x, p, q: np.zeros(np.shape(x)[:-1] + (2, 2)),
        P=np.eye(2), P_inv=np.eye(2))
    for res, cap, reused in [(21, 200_000, True), (13, 200_000, False),
                             (33, 400_000, False)]:
        config = SolveConfig(res=res, seed=3)
        grid = build_grid(2, config.R0, res)
        pairs = build_pair_set(grid, seed=config.seed, cap=cap)
        if res == 13:  # a sampled set on the same grid
            pairs = PairSet.from_pairs(grid, pairs.first[:5000],
                                       pairs.second[:5000])
        picard_module.choose_norm_radius(system, config, grid, pairs)
        assert (seen[-1] is pairs) == reused


# ---------------------------------------------------------------------------
# coefficient deviation estimate


def _linear_deviation_system():
    def b(x, p, q):
        out = np.zeros(np.shape(x)[:-1] + (2, 2))
        out[..., 0, 0] = x[..., 0]
        return out

    return PoissonSystem(
        n=2, m=1,
        psi=lambda x, p, q: np.zeros(np.shape(p)),
        b=b,
        P=np.eye(2), P_inv=np.eye(2))


def test_deviation_sup_exact_on_linear_coefficient():
    system = _linear_deviation_system()
    # b grows along the x1 ray, so the sup sits at the box corner: C = R
    assert coefficient_deviation_sup(system, 0.1, 1.0) == pytest.approx(0.1)
    assert coefficient_deviation_sup(system, 0.05, 3.0) == pytest.approx(0.05)


def test_deviation_sup_monotone_in_radius():
    system = _linear_deviation_system()
    values = [coefficient_deviation_sup(system, R, 2.0)
              for R in (1.0, 0.5, 0.25, 0.125)]
    assert all(b < a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# residuals and reporting


def test_residual_zero_for_exact_quadratic(grid3):
    system = diagonalize(poisson_system(3, const=3.0))
    vals = 3.0 * np.einsum("ij,ij->i", grid3.nodes, grid3.nodes)[:, None] / 6.0
    rep = residual_check(system, grid3, vals)
    assert rep.residual_sup <= 1e-10
    assert rep.source_sup == pytest.approx(3.0)
    # residuals are only defined on interior nodes
    assert np.isnan(rep.node_residuals[grid3.boundary_mask]).all()


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
])
def test_solve_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SolveConfig(**kwargs)


def test_solve_config_radius_floor_default():
    cfg = SolveConfig(R0=2.0)
    assert cfg.radius_floor == pytest.approx(2.0 / 64)
    cfg2 = SolveConfig(R0=2.0, R_min=0.5)
    assert cfg2.radius_floor == 0.5


def test_solve_system_checks_dimensions():
    with pytest.raises(ValueError):
        solve_system(poisson_system(2, const=1.0), JetSpec.zero(1, 3),
                     SolveConfig(res=9))
