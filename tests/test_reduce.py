"""Jet shifting, coefficient diagonalization, and ellipticity screening."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetsolve import (
    ChartError,
    EllipticityError,
    JetSpec,
    PoissonSystem,
    SystemDef,
    check_ellipticity,
    diagonalize,
    harmonic_map_system,
    hyperbolic_disk_target,
    minimal_surface_system,
    poisson_system,
    shift_jet,
    sphere_stereographic_target,
)
from jetsolve.oracle import poisson_form_reference


# ---------------------------------------------------------------------------
# JetSpec


def test_jet_spec_shapes():
    jet = JetSpec(np.array([1.0]), np.array([[0.5, -0.5]]))
    assert jet.m == 1 and jet.n == 2
    with pytest.raises(ValueError):
        JetSpec(np.array([1.0, 2.0]), np.array([[0.5, -0.5]]))
    with pytest.raises(ValueError):
        JetSpec(np.array([[1.0]]), np.array([[0.5, -0.5]]))


def test_jet_spec_zero():
    jet = JetSpec.zero(2, 3)
    assert jet.c0.shape == (2,)
    assert jet.c1.shape == (2, 3)
    assert not jet.c0.any() and not jet.c1.any()


# ---------------------------------------------------------------------------
# shift_jet


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_shift_composes_jet_into_arguments(seed):
    rng = np.random.default_rng(seed)
    sys0 = minimal_surface_system(2, q_bound=3.0)
    jet = JetSpec(rng.normal(size=1) * 0.1, rng.normal(size=(1, 2)) * 0.3)
    shifted = shift_jet(sys0, jet)
    x = rng.normal(size=2) * 0.4
    p = rng.normal(size=1) * 0.2
    q = rng.normal(size=(1, 2)) * 0.2
    moved_p = p + jet.c0 + jet.c1 @ x
    moved_q = q + jet.c1
    np.testing.assert_allclose(shifted.a(x, p, q), sys0.a(x, moved_p, moved_q),
                               atol=1e-13)
    np.testing.assert_allclose(shifted.phi(x, p, q),
                               sys0.phi(x, moved_p, moved_q), atol=1e-13)


def test_shift_zero_jet_is_identity():
    sys0 = minimal_surface_system(2)
    shifted = shift_jet(sys0, JetSpec.zero(1, 2))
    x = np.array([0.1, -0.2])
    p = np.array([0.05])
    q = np.array([[0.3, 0.1]])
    np.testing.assert_array_equal(shifted.a(x, p, q), sys0.a(x, p, q))


def test_shift_rejects_jet_outside_chart():
    target = hyperbolic_disk_target(2)
    sys0 = harmonic_map_system(2, target)
    bad = JetSpec(np.array([1.5, 0.0]), np.zeros((2, 2)))
    with pytest.raises(ChartError):
        shift_jet(sys0, bad)


# ---------------------------------------------------------------------------
# diagonalize


def _constant_coefficient_system(A):
    A = np.asarray(A, dtype=np.float64)
    n = A.shape[0]

    return SystemDef(
        n=n, m=1,
        a=lambda x, p, q: np.broadcast_to(A, np.shape(x)[:-1] + A.shape),
        phi=lambda x, p, q: np.zeros(np.shape(p)),
        lam=0.01, name="const_coef",
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_diagonalize_whitens_origin_matrix(seed):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(2, 2))
    A = M @ M.T + 0.2 * np.eye(2)
    ps = diagonalize(_constant_coefficient_system(A))
    I = ps.P @ (A + A.T) / 2 @ ps.P.T
    np.testing.assert_allclose(I, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(ps.P @ ps.P_inv, np.eye(2), atol=1e-12)


def test_diagonalize_constant_system_has_zero_deviation():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    ps = diagonalize(_constant_coefficient_system(A))
    # constant coefficients: b vanishes everywhere, not only at the origin
    x = np.array([0.3, -0.4])
    b = ps.b(x, np.array([0.1]), np.array([[0.2, -0.1]]))
    np.testing.assert_allclose(b, 0.0, atol=1e-12)


def test_diagonalize_minimal_surface_origin_matrix():
    # with 1-jet slope c1 the frozen matrix is I - c1 c1^T / (1 + |c1|^2);
    # the shift folds the jet into the oracle arguments first
    jet = JetSpec(np.zeros(1), np.array([[0.6, 0.0]]))
    sys0 = minimal_surface_system(2)
    ps = diagonalize(shift_jet(sys0, jet))
    want = np.eye(2) - np.outer([0.6, 0.0], [0.6, 0.0]) / 1.36
    # P_inv = A0^(1/2), so P_inv @ P_inv is the symmetrized A0
    np.testing.assert_allclose(ps.P_inv @ ps.P_inv, want, atol=1e-12)


def test_diagonalize_rejects_indefinite():
    # nan and inf fail every comparison, so each must be rejected outright
    for A in (np.diag([1.0, -0.5]), np.diag([np.nan, 1.0]),
              np.diag([1.0, np.inf]), [[1.0, np.inf], [np.inf, 1.0]]):
        with pytest.raises(EllipticityError):
            diagonalize(_constant_coefficient_system(A))
    # and so is a nan b(0, 0, 0) of a Poisson form
    with pytest.raises(ValueError, match="must vanish"):
        PoissonSystem(n=2, m=1, psi=lambda x, p, q: np.zeros(np.shape(p)),
                      b=lambda x, p, q: np.full(np.shape(x)[:-1] + (2, 2),
                                                np.nan),
                      P=np.eye(2), P_inv=np.eye(2))


def test_poisson_diagonalization_is_trivial():
    ps = diagonalize(poisson_system(3, const=2.0))
    np.testing.assert_allclose(ps.P, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(ps.psi(np.zeros(3), np.zeros(1),
                                      np.zeros((1, 3))), [2.0], atol=1e-14)


def _points(rng, batch, n, m):
    """Oracle arguments of batch shape batch, with +0 and -0 entries."""
    x = rng.normal(size=batch + (n,)) * 0.3
    p = rng.normal(size=batch + (m,)) * 0.1
    q = rng.normal(size=batch + (m, n)) * 0.3
    x.flat[::3] = 0.0
    p.flat[::4] = -0.0
    q.flat[::5] = 0.0
    q.flat[1::5] = -0.0
    return x, p, q


_BATCHES = [(), (41,), (5, 7)]


@pytest.mark.parametrize("batch", _BATCHES)
@pytest.mark.parametrize("make", [
    # the benchmark systems: the 2D minimal surface at the zero jet, the
    # sphere and hyperbolic harmonic maps with a jet (identity coefficients)
    lambda: minimal_surface_system(2, q_bound=2.5),
    lambda: minimal_surface_system(3),
    lambda: shift_jet(harmonic_map_system(3, sphere_stereographic_target(2)),
                      JetSpec(np.zeros(2), [[0.3, 0.0, 0.0], [0.0, 0.1, 0.0]])),
    lambda: shift_jet(harmonic_map_system(2, hyperbolic_disk_target(2)),
                      JetSpec([0.1, 0.0], [[0.3, 0.0], [0.0, 0.3]])),
])
def test_poisson_form_is_its_reference_bitwise_at_the_identity(make, batch):
    # P = I: every GEMM entry is one product by 1 among products by 0, so
    # psi and b are the point-by-point products bit for bit
    system = make()
    form = diagonalize(system)
    assert form.P.tobytes() == np.eye(system.n).tobytes()
    x, p, q = _points(np.random.default_rng(len(batch)), batch, system.n,
                      system.m)
    psi, b = poisson_form_reference(system, form, x, p, q)
    got_psi, got_b = form.psi(x, p, q), form.b(x, p, q)
    assert got_psi.shape == psi.shape == batch + (system.m,)
    assert got_b.shape == b.shape == batch + (system.n, system.n)
    assert got_psi.tobytes() == psi.tobytes()
    assert got_b.tobytes() == b.tobytes()


def _spd_system(n, m, seed):
    """A random SPD A0 = a(0, 0, 0), with coefficients and right sides
    that depend on x, p and q."""
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(n, n))
    A0 = G @ G.T + 0.2 * np.eye(n)
    S = rng.normal(size=(n, n))
    S = S + S.T
    K = rng.normal(size=(m, n))

    def a(x, p, q):
        w = (np.einsum("...ij,...ij->...", q, q) + p.sum(axis=-1)
             + x[..., 0] * x[..., -1])
        return A0 + w[..., None, None] * S

    def phi(x, p, q):
        return np.sin(np.einsum("...ij,ij->...i", q, K)) + p * x[..., :1]

    return SystemDef(n=n, m=m, a=a, phi=phi, lam=0.01, name="spd")


@pytest.mark.parametrize("batch", _BATCHES)
@pytest.mark.parametrize("n,m,seed", [(2, 1, 0), (2, 2, 1), (3, 1, 2),
                                      (3, 2, 3)])
def test_poisson_form_matches_its_reference_for_random_spd(n, m, seed,
                                                           batch):
    system = _spd_system(n, m, seed)
    form = diagonalize(system)
    assert not np.array_equal(form.P, np.eye(n))
    x, p, q = _points(np.random.default_rng(seed), batch, n, m)
    psi, b = poisson_form_reference(system, form, x, p, q)
    for got, want in ((form.psi(x, p, q), psi), (form.b(x, p, q), b)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())


# ---------------------------------------------------------------------------
# ellipticity screening


def test_check_ellipticity_accepts_minimal_surface():
    sys0 = minimal_surface_system(2, q_bound=1.0)
    margin = check_ellipticity(sys0, samples=500)
    assert margin >= 0.0


def test_check_ellipticity_catches_degenerate():
    def a(x, p, q):
        out = np.zeros(np.shape(q)[:-2] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = 1.0 - 4.0 * q[..., 0, 0] ** 2
        return out

    bad = SystemDef(
        n=2, m=1,
        a=a,
        phi=lambda x, p, q: np.zeros(np.shape(p)),
        lam=0.5, name="degenerate", q_bound=1.0,
    )
    with pytest.raises(EllipticityError):
        check_ellipticity(bad, samples=2000)
    # a nan or inf value certifies no bound: it is a violation too
    for value in (np.nan, np.inf):
        def a_bad(x, p, q, value=value):
            out = a(x, p, q)
            out[..., 1, 1] = np.where(q[..., 0, 0] > 0.9, value, 1.0)
            return out

        bad.a = a_bad
        with pytest.raises(EllipticityError, match=str(value)):
            check_ellipticity(bad, samples=2000)
