"""Independent oracles: closed forms, brute-force seminorms, enumeration."""

import math

import numpy as np
import pytest

from jetsolve import build_grid, field_from_callable, uniform_ball_potential
from jetsolve.oracle import (ball_lattice_count, exhaustive_holder,
                             fd_laplacian_reference)


def test_uniform_ball_potential_laplacian_is_minus_one():
    # u = R^2/2 - |x|^2/6 in 3-d: each pure second derivative is -1/3
    # u = R^2(1-2 ln R)/4 - |x|^2/4 in 2-d: each is -1/2
    for n in (2, 3):
        R = 1.3
        h = 1e-4
        x = np.array([0.21, -0.35, 0.11][:n])
        lap = 0.0
        for d in range(n):
            e = np.zeros(n)
            e[d] = h
            lap += (
                uniform_ball_potential(n, R, x + e)
                - 2 * uniform_ball_potential(n, R, x)
                + uniform_ball_potential(n, R, x - e)
            ) / h**2
        assert abs(lap + 1.0) < 1e-6


def test_uniform_ball_potential_center_values():
    assert uniform_ball_potential(3, 2.0, np.zeros(3)) == pytest.approx(2.0)
    # n = 2 at R = 1: ln R = 0 so the center value is 1/4
    assert uniform_ball_potential(2, 1.0, np.zeros(2)) == pytest.approx(0.25)


def test_uniform_ball_potential_radial():
    R = 0.8
    for n in (2, 3):
        a = uniform_ball_potential(n, R, np.array([0.3, 0.0, 0.0][:n]))
        b = uniform_ball_potential(n, R, np.array([0.0, -0.3, 0.0][:n]))
        assert a == pytest.approx(b, rel=1e-14)


def test_uniform_ball_potential_rejects_bad_dimension():
    with pytest.raises(ValueError):
        uniform_ball_potential(4, 1.0, np.zeros(4))


def test_exhaustive_holder_on_linear_section():
    # |t - s| / |t - s|^a maximizes at the endpoints: (2w)^(1-a)
    alpha = 0.5
    w = 1.0
    got = exhaustive_holder(lambda t: t, alpha, 801, halfwidth=w)
    assert got == pytest.approx((2 * w) ** (1 - alpha), rel=1e-6)


def test_exhaustive_holder_on_sqrt_abs():
    # |t|^(1/2) has Hoelder-1/2 seminorm exactly 1 (pairs through 0)
    got = exhaustive_holder(lambda t: math.sqrt(abs(t)), 0.5, 1601)
    assert got == pytest.approx(1.0, abs=5e-3)


def test_exhaustive_holder_validates_args():
    with pytest.raises(ValueError):
        exhaustive_holder(lambda t: t, 1.0, 100)
    with pytest.raises(ValueError):
        exhaustive_holder(lambda t: t, 0.5, 1)


@pytest.mark.parametrize("n,res", [(2, 9), (2, 13), (3, 9)])
def test_lattice_count_agrees_with_grid(n, res):
    R = 1.0
    assert ball_lattice_count(n, R, res) == build_grid(n, R, res).node_count


def test_lattice_count_monotone_in_resolution():
    counts = [ball_lattice_count(2, 1.0, r) for r in (5, 9, 13, 17, 21)]
    assert counts == sorted(counts)
    assert counts[0] >= 5


def test_fd_laplacian_reference_on_quadratic():
    grid = build_grid(2, 1.0, 17)
    f = field_from_callable(grid, lambda p: p[:, 0] ** 2 + 2 * p[:, 1] ** 2)
    lap = fd_laplacian_reference(f)
    got = lap.values[grid.interior_mask]
    np.testing.assert_allclose(got, 6.0, atol=1e-9)
