"""Built-in systems and target geometries, cross-checked symbolically."""

import numpy as np
import pytest

from jetsolve import (
    SYSTEM_REGISTRY,
    TARGET_REGISTRY,
    build_system,
    euclidean_target,
    harmonic_map_system,
    hyperbolic_disk_target,
    minimal_surface_system,
    poisson_system,
    prescribed_mean_curvature_system,
    sphere_stereographic_target,
)


# ---------------------------------------------------------------------------
# conformal targets: Christoffel symbols against a symbolic derivation


def _sympy_christoffel(sign):
    """Symbols of g = lam^2 I with lam = 2/(1 + sign |u|^2), via sympy."""
    import sympy as sp

    u1, u2 = sp.symbols("u1 u2", real=True)
    u = [u1, u2]
    lam = 2 / (1 + sign * (u1**2 + u2**2))
    g = [[lam**2 if i == j else sp.Integer(0) for j in range(2)]
         for i in range(2)]
    ginv = [[1 / lam**2 if i == j else sp.Integer(0) for j in range(2)]
            for i in range(2)]
    gam = [[[sp.simplify(
        sum(ginv[a][d] * (sp.diff(g[d][c], u[b]) + sp.diff(g[d][b], u[c])
                          - sp.diff(g[b][c], u[d])) / 2 for d in range(2)))
        for c in range(2)] for b in range(2)] for a in range(2)]

    def evaluate(p):
        subs = {u1: float(p[0]), u2: float(p[1])}
        return np.array([[[float(gam[a][b][c].evalf(subs=subs))
                           for c in range(2)] for b in range(2)]
                         for a in range(2)])

    return evaluate


@pytest.mark.parametrize("make,sign,points", [
    (sphere_stereographic_target, +1,
     [(0.0, 0.0), (0.3, -0.2), (1.1, 0.7), (2.5, -1.5)]),
    (hyperbolic_disk_target, -1,
     [(0.0, 0.0), (0.3, -0.2), (0.6, 0.1), (0.05, 0.9)]),
])
def test_christoffel_matches_symbolic(make, sign, points):
    target = make(2)
    symbolic = _sympy_christoffel(sign)
    for pt in points:
        p = np.asarray(pt)
        got = target.christoffel(p)
        want = symbolic(p)
        np.testing.assert_allclose(got, want, atol=1e-10, err_msg=str(pt))


def test_christoffel_symmetric_in_lower_indices(rng):
    for target in (sphere_stereographic_target(2), hyperbolic_disk_target(2)):
        scale = 0.9 if target.chart_radius <= 1.0 else 3.0
        for _ in range(200):
            p = rng.uniform(-1, 1, size=2)
            p *= scale * rng.uniform(0, 1) / max(np.linalg.norm(p), 1e-9)
            G = target.christoffel(p)
            np.testing.assert_allclose(G, np.transpose(G, (0, 2, 1)),
                                       atol=1e-14)


def test_christoffel_vanishes_at_chart_origin():
    for target in (sphere_stereographic_target(2), hyperbolic_disk_target(2)):
        np.testing.assert_allclose(target.christoffel(np.zeros(2)), 0.0,
                                   atol=1e-15)


def test_chart_guard_raises_outside():
    hyp = hyperbolic_disk_target(2)
    with pytest.raises(ValueError):
        hyp.christoffel(np.array([1.0, 0.2]))
    with pytest.raises(ValueError):
        hyp.metric(np.array([0.8, 0.8]))


def test_metric_positive_definite_in_chart(rng):
    hyp = hyperbolic_disk_target(2)
    for _ in range(50):
        p = rng.uniform(-0.6, 0.6, size=2)
        g = hyp.metric(p)
        evs = np.linalg.eigvalsh(g)
        assert evs.min() > 0


@pytest.mark.parametrize("name,key", [
    ("minimal_surface", "q_bound"),
    ("prescribed_mean_curvature", "q_bound"),
    ("prescribed_mean_curvature", "mean_curvature"),
    ("harmonic_map", "q_bound"),
])
@pytest.mark.parametrize("flag", [True, np.True_])
def test_real_system_params_reject_bools(name, key, flag):
    # float() would read the bool as 1.0
    with pytest.raises(ValueError, match=f"{key}.*not a real number"):
        build_system(name, 2, {key: flag})
    assert build_system(name, 2, {key: np.float64(0.5)}).name


def test_euclidean_target_is_flat():
    target = euclidean_target(3)
    assert target.flat
    assert target.chart_radius is None
    np.testing.assert_array_equal(target.christoffel(np.ones(3)), 0.0)
    np.testing.assert_array_equal(target.metric(np.ones(3)), np.eye(3))


# ---------------------------------------------------------------------------
# graph systems


def test_minimal_surface_eigenvalue_window(rng):
    sys0 = minimal_surface_system(2, q_bound=1.0)
    for _ in range(100):
        q = rng.uniform(-1, 1, size=(1, 2))
        A = sys0.a(np.zeros(2), np.zeros(1), q)
        evs = np.linalg.eigvalsh(A)
        s2 = float(q[0] @ q[0])
        assert evs.min() >= 1.0 / (1.0 + s2) - 1e-12
        assert evs.max() <= 1.0 + 1e-12


def test_minimal_surface_frozen_matrix():
    sys0 = minimal_surface_system(2)
    A = sys0.a(np.zeros(2), np.zeros(1), np.array([[1.0, 0.0]]))
    np.testing.assert_allclose(A, np.array([[0.5, 0.0], [0.0, 1.0]]),
                               atol=1e-14)
    assert sys0.phi(np.zeros(2), np.zeros(1),
                    np.array([[1.0, 0.0]])) == pytest.approx(0.0)


def test_minimal_surface_ellipticity_constant():
    sys0 = minimal_surface_system(3, q_bound=2.0)
    assert sys0.lam == pytest.approx(1.0 / 5.0)


def test_pmc_source_scales_with_slope():
    sys1 = prescribed_mean_curvature_system(2, mean_curvature=0.5)
    q = np.array([[3.0, 4.0]])  # |q| = 5
    val = sys1.phi(np.zeros(2), np.zeros(1), q)
    want = 2 * 0.5 * np.sqrt(1 + 25.0)
    assert val[0] == pytest.approx(want, rel=1e-14)


def test_pmc_accepts_callable_curvature():
    sys1 = prescribed_mean_curvature_system(
        2, mean_curvature=lambda x, u: x[..., 0] + u)
    out = sys1.phi(np.array([0.25, 0.0]), np.array([0.75]), np.zeros((1, 2)))
    assert out[0] == pytest.approx(2 * 1.0 * 1.0)


def test_poisson_affine_source():
    sys1 = poisson_system(3, const=1.5, linear=[0.0, 2.0, 0.0])
    x = np.array([0.1, 0.25, -0.3])
    out = sys1.phi(x, np.zeros(1), np.zeros((1, 3)))
    assert out[0] == pytest.approx(1.5 + 0.5)
    np.testing.assert_array_equal(sys1.a(x, np.zeros(1), np.zeros((1, 3))),
                                  np.eye(3))


# ---------------------------------------------------------------------------
# harmonic map systems


def test_harmonic_map_source_is_christoffel_contraction(rng):
    target = sphere_stereographic_target(2)
    sys1 = harmonic_map_system(2, target)
    for _ in range(20):
        p = rng.uniform(-0.5, 0.5, size=2)
        q = rng.uniform(-1, 1, size=(2, 2))
        got = sys1.phi(np.zeros(2), p, q)
        G = target.christoffel(p)
        want = -np.einsum("abc,bi,ci->a", G, q, q)
        np.testing.assert_allclose(got, want, atol=1e-13)


def test_harmonic_map_source_vanishes_at_origin():
    sys1 = harmonic_map_system(2, hyperbolic_disk_target(2))
    q = np.array([[0.3, 0.0], [0.0, 0.3]])
    np.testing.assert_allclose(sys1.phi(np.zeros(2), np.zeros(2), q), 0.0,
                               atol=1e-15)


def test_harmonic_map_p_bound_respects_chart():
    sys1 = harmonic_map_system(2, hyperbolic_disk_target(2))
    assert sys1.p_bound <= 0.9 * 1.0 + 1e-12


# ---------------------------------------------------------------------------
# registries


def test_system_registry_contents():
    assert {"poisson", "minimal_surface", "prescribed_mean_curvature",
            "harmonic_map"} <= set(SYSTEM_REGISTRY)
    assert {"euclidean", "sphere", "hyperbolic"} <= set(TARGET_REGISTRY)


def test_build_system_round_trip():
    sys1 = build_system("minimal_surface", 2, {"q_bound": 2.0})
    assert sys1.n == 2 and sys1.m == 1
    sys2 = build_system("harmonic_map", 2, {"target": "sphere"})
    assert sys2.m == 2


def test_build_system_unknown_name():
    with pytest.raises(ValueError, match="unknown system"):
        build_system("not_a_system", 2, {})


def test_register_round_trip():
    def build(n, params):
        return poisson_system(n, const=params.get("c", 0.0))

    SYSTEM_REGISTRY["custom_poisson_for_test"] = build
    try:
        sys1 = build_system("custom_poisson_for_test", 2, {"c": 4.0})
        assert sys1.phi(np.zeros(2), np.zeros(1),
                        np.zeros((1, 2)))[0] == pytest.approx(4.0)
    finally:
        SYSTEM_REGISTRY.pop("custom_poisson_for_test", None)

    TARGET_REGISTRY["flat_for_test"] = euclidean_target
    try:
        sys2 = build_system("harmonic_map", 2, {"target": "flat_for_test"})
        assert sys2.m == 2
    finally:
        TARGET_REGISTRY.pop("flat_for_test", None)
