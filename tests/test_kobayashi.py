"""Extremal-radius search for harmonic disks into curved targets."""

import numpy as np
import pytest

from jetsolve import (
    HarmonicPolynomial,
    KobayashiQuery,
    SolveConfig,
    TargetManifold,
    estimate,
    euclidean_target,
    hyperbolic_disk_target,
    sphere_stereographic_target,
)
import jetsolve.grid as grid_module
import jetsolve.kobayashi as kobayashi_module
import jetsolve.picard as picard_module
from jetsolve.kobayashi import (conformality_defect, is_conformal_jet,
                                orthogonal_partner)


HYP = hyperbolic_disk_target(2)
SPH = sphere_stereographic_target(2)
FAST = SolveConfig(res=21, gamma0=1.0, seed=0)


# ---------------------------------------------------------------------------
# partner construction and conformality


def test_partner_euclidean_axis():
    Y = orthogonal_partner(euclidean_target(2), np.zeros(2),
                           np.array([1.0, 0.0]))
    assert abs(Y @ np.array([1.0, 0.0])) < 1e-14
    assert np.linalg.norm(Y) == pytest.approx(1.0)


def test_partner_euclidean_diagonal():
    X = np.array([1.0, 1.0]) / np.sqrt(2)
    Y = orthogonal_partner(euclidean_target(2), np.zeros(2), X)
    assert abs(Y @ X) < 1e-14
    assert np.linalg.norm(Y) == pytest.approx(1.0)


def test_partner_respects_curved_metric(rng):
    for _ in range(25):
        p = rng.uniform(-0.4, 0.4, size=2)
        X = rng.normal(size=2) * 0.3
        if np.linalg.norm(X) < 1e-3:
            continue
        Y = orthogonal_partner(HYP, p, X)
        h = HYP.metric(p)
        assert X @ h @ Y == pytest.approx(0.0, abs=1e-12)
        assert Y @ h @ Y == pytest.approx(X @ h @ X, rel=1e-12)


def test_partner_rejects_zero_vector():
    with pytest.raises(ValueError):
        orthogonal_partner(HYP, np.zeros(2), np.zeros(2))


def test_geodesic_style_jet_is_not_conformal():
    X = np.array([0.5, 0.0])
    jet = np.column_stack([X, X])
    assert conformality_defect(HYP, np.zeros(2), jet) > 0.1
    assert not is_conformal_jet(HYP, np.zeros(2), jet)


def test_partner_jet_is_conformal():
    X = np.array([0.5, 0.0])
    jet = np.column_stack([X, orthogonal_partner(HYP, np.zeros(2), X)])
    assert conformality_defect(HYP, np.zeros(2), jet) <= 1e-12
    assert is_conformal_jet(HYP, np.zeros(2), jet)


def test_estimate_rejects_a_partner_that_is_not_conformal(monkeypatch):
    # the self-check applies the rule of is_conformal_jet before any solve
    monkeypatch.setattr(kobayashi_module, "orthogonal_partner",
                        lambda target, p, X: X)
    with pytest.raises(ValueError, match="not conformal"):
        estimate(KobayashiQuery(HYP, np.zeros(2), np.array([0.5, 0.0])))


# ---------------------------------------------------------------------------
# query validation


def test_query_rejects_base_point_outside_chart():
    with pytest.raises(ValueError):
        KobayashiQuery(HYP, np.array([1.2, 0.0]), np.array([0.1, 0.0]))


def test_query_rejects_bad_schedule():
    with pytest.raises(ValueError):
        KobayashiQuery(HYP, np.zeros(2), np.ones(2), r_start=0.0)
    with pytest.raises(ValueError):
        KobayashiQuery(HYP, np.zeros(2), np.ones(2), growth=1.0)
    with pytest.raises(ValueError):
        KobayashiQuery(HYP, np.zeros(2), np.ones(2), max_steps=0)
    # a last radius that overflows (1.5**1999 and 1e200**2 raise)
    for kwargs in ({"max_steps": 2000}, {"growth": 1e200, "max_steps": 3}):
        with pytest.raises(ValueError, match=r"growth\*\*\(max_steps - 1\)"):
            KobayashiQuery(HYP, np.zeros(2), np.ones(2), **kwargs)


@pytest.mark.parametrize("kwargs", [
    {"max_steps": 2.5},          # integral fields take no fractions ...
    {"max_steps": True},         # ... and no bools
    {"max_steps": np.True_},
    {"r_start": True},           # nor do the real ones, though 0 < True
    {"growth": np.True_, "r_start": 0.5},
])
def test_query_rejects_bools_and_fractions(kwargs):
    key = next(iter(kwargs))
    with pytest.raises(ValueError, match=key):
        KobayashiQuery(HYP, np.zeros(2), np.ones(2) * 0.1, **kwargs)


@pytest.mark.parametrize("key,bad", [
    ("p", [0.0, True]),          # np.asarray(..., float) reads 1.0
    ("p", np.array([False, False])),
    ("X", ["0.1", 0.0]),         # ... and 0.1
    ("X", [[0.1, 0.0], [0.0]]),  # ragged
])
def test_query_rejects_non_real_vector_entries(key, bad):
    kwargs = {"p": np.zeros(2), "X": np.ones(2) * 0.1, key: bad}
    with pytest.raises(ValueError, match=f"{key}: "):
        KobayashiQuery(HYP, **kwargs)


def test_query_stores_its_vectors_as_new_float_arrays():
    p, X = np.zeros(2, dtype=np.int64), np.array([0.5, 0.0])
    q = KobayashiQuery(HYP, p, X)
    assert q.p.dtype == np.float64 and q.X.dtype == np.float64
    assert q.X is not X
    q = KobayashiQuery(HYP, [0, 0.0], (np.float32(0.5), 0))
    np.testing.assert_array_equal(q.X, [0.5, 0.0])


def test_query_stores_its_schedule_as_python_numbers():
    q = KobayashiQuery(HYP, np.zeros(2), np.array([0.5, 0.0]),
                       r_start=np.float32(0.25), growth=2, max_steps=3.0)
    assert type(q.max_steps) is int and q.max_steps == 3
    assert type(q.r_start) is float and type(q.growth) is float
    q = KobayashiQuery(HYP, np.zeros(2), np.array([0.5, 0.0]),
                       max_steps=np.int64(2))
    assert type(q.max_steps) is int and len(q.schedule()) == 2


def test_query_schedule_is_geometric():
    q = KobayashiQuery(HYP, np.zeros(2), np.array([0.5, 0.0]),
                       r_start=0.25, growth=2.0, max_steps=3)
    np.testing.assert_allclose(q.schedule(), [0.25, 0.5, 1.0])
    # a last radius that is finite, however large, stands
    q = KobayashiQuery(HYP, np.zeros(2), np.array([0.5, 0.0]), r_start=1e8,
                       growth=1e100, max_steps=4)
    assert q.schedule()[-1] == 1e308


# ---------------------------------------------------------------------------
# certificates


def test_zero_vector_gives_zero():
    est = estimate(KobayashiQuery(HYP, np.zeros(2), np.zeros(2)))
    assert est.upper_bound == 0.0
    assert est.certificate == "zero_vector"
    assert not est.inconclusive
    assert est.outcomes == []


def test_flatness_is_the_target_flag_alone():
    # a target whose connection vanishes but which does not say so is
    # searched like any other, radius by radius
    flat = euclidean_target(2)
    unmarked = TargetManifold("unmarked", 2, flat.christoffel, flat.metric)
    est = estimate(KobayashiQuery(unmarked, np.zeros(2),
                                  np.array([0.4, 0.0]), max_steps=2),
                   solve_config=SolveConfig(res=7, gamma0=1.0))
    assert est.certificate is None
    assert [o.success for o in est.outcomes] == [True, True]


def test_flat_target_gives_linear_certificate():
    est = estimate(KobayashiQuery(euclidean_target(2), np.zeros(2),
                                  np.array([2.0, -1.0])))
    assert est.upper_bound == 0.0
    assert est.certificate == "linear_map"


# ---------------------------------------------------------------------------
# full searches


@pytest.fixture(scope="module")
def hyperbolic_estimate():
    q = KobayashiQuery(HYP, np.zeros(2), np.array([0.5, 0.0]))
    return estimate(q, solve_config=FAST)


def test_hyperbolic_bound_finite(hyperbolic_estimate):
    est = hyperbolic_estimate
    assert not est.inconclusive
    assert est.upper_bound is not None and np.isfinite(est.upper_bound)
    assert est.upper_bound == pytest.approx(1.0 / est.r_best)


def test_hyperbolic_outcomes_monotone(hyperbolic_estimate):
    flags = [o.success for o in hyperbolic_estimate.outcomes]
    # successes form a prefix; the search stops at the first failure
    assert flags == sorted(flags, reverse=True)
    assert flags.count(False) <= 1
    radii = [o.R for o in hyperbolic_estimate.outcomes]
    assert radii == sorted(radii)


def test_hyperbolic_r_best_is_largest_success(hyperbolic_estimate):
    est = hyperbolic_estimate
    best = max(o.R for o in est.outcomes if o.success)
    assert est.r_best == best


def test_partner_recorded(hyperbolic_estimate):
    Y = hyperbolic_estimate.partner
    assert Y is not None
    assert abs(Y @ np.array([0.5, 0.0])) < 1e-12


def test_failed_radius_reads_the_failure_type():
    # the schedule's 7th radius leaves the chart: the solve's OracleFailure
    # is a failed radius named by its type, with no iterations or residual
    q = KobayashiQuery(HYP, np.zeros(2), np.array([0.5, 0.0]))
    est = estimate(q, solve_config=SolveConfig(res=9, tol=1e-6))
    assert [o.success for o in est.outcomes] == [True] * 6 + [False]
    failed = est.outcomes[-1]
    assert failed.reason == "OracleFailure"
    assert failed.iterations is None and failed.residual is None
    assert failed.conformality_defect is None


def test_inconclusive_when_every_radius_fails():
    q = KobayashiQuery(HYP, np.zeros(2), np.array([0.9, 0.0]),
                       r_start=8.0, growth=1.5, max_steps=2)
    est = estimate(q, solve_config=FAST)
    assert est.inconclusive
    assert est.upper_bound is None
    assert est.r_best is None
    assert all(not o.success for o in est.outcomes)


def test_sphere_short_schedule_succeeds():
    q = KobayashiQuery(SPH, np.zeros(2), np.array([0.2, 0.0]),
                       r_start=0.25, growth=1.5, max_steps=2)
    est = estimate(q, solve_config=FAST)
    assert not est.inconclusive
    assert est.upper_bound == pytest.approx(1.0 / 0.375)


def test_estimate_rejects_a_seeded_config():
    # every radius solves from zero: a seed would be silently dropped
    saddle = HarmonicPolynomial({(2, 0): 5.0, (0, 2): -5.0})
    q = KobayashiQuery(HYP, np.zeros(2), np.array([0.4, 0.0]), max_steps=2)
    with pytest.raises(ValueError, match="harmonic_seed"):
        estimate(q, solve_config=SolveConfig(res=7,
                                             harmonic_seed=[saddle] * 2))


def test_one_lattice_ball_per_estimate(monkeypatch):
    # the seven radii of one search build their grids on one ball, and a
    # second search builds its own
    balls, grid_balls = [], []
    init = grid_module.LatticeBall.__init__
    build = picard_module.build_grid

    def counting_init(self, *args):
        balls.append(self)
        init(self, *args)

    def recording_build(*args):
        grid = build(*args)
        grid_balls.append(grid.ball)
        return grid

    monkeypatch.setattr(grid_module.LatticeBall, "__init__", counting_init)
    monkeypatch.setattr(picard_module, "build_grid", recording_build)
    q = KobayashiQuery(HYP, np.zeros(2), np.array([0.4, 0.0]), max_steps=7)
    config = SolveConfig(res=13, tol=1e-7)
    first = estimate(q, solve_config=config)
    assert len(first.outcomes) == 7
    assert len(balls) == 1
    assert grid_balls == [balls[0]] * 7
    estimate(q, solve_config=config)
    assert len(balls) == 2 and balls[1] is not balls[0]
    assert grid_balls[7:] == [balls[1]] * 7


@pytest.mark.parametrize("schedule,needle", [
    # the last radius is too large for a res-21 grid, or the first too small
    ({"r_start": 1e156, "max_steps": 2}, "too large"),
    ({"r_start": 1.0, "growth": 1e156, "max_steps": 2}, "too large"),
    ({"r_start": 1e-200, "growth": 1e100, "max_steps": 3}, "too small"),
])
def test_estimate_rejects_radii_the_grid_cannot_hold(schedule, needle,
                                                     monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the schedule was checked")

    monkeypatch.setattr(kobayashi_module, "solve_system", no_solve)
    q = KobayashiQuery(HYP, np.zeros(2), np.array([0.4, 0.0]), **schedule)
    with pytest.raises(ValueError, match="r_start, growth, max_steps") as err:
        estimate(q, solve_config=FAST)
    assert needle in str(err.value)
