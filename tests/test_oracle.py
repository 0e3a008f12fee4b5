"""Independent oracles: closed forms and enumeration."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import jetsolve
from jetsolve import build_grid, uniform_ball_potential
from jetsolve.oracle import ball_lattice_count


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


@pytest.mark.parametrize("n,R", [(2, 0.4), (2, 1.0), (2, 2.5), (3, 0.7),
                                 (3, 1.0), (3, 3.0)])
def test_uniform_ball_potential_batch_matches_scalar_form(n, R):
    # a batch (..., n) gives, point for point, the value of one point (n,),
    # and both agree with the closed form written with np.dot to within
    # 4 ulp of the largest value
    nodes = build_grid(n, R, 17).nodes
    batch = uniform_ball_potential(n, R, nodes)
    scalar = np.array([uniform_ball_potential(n, R, x) for x in nodes])
    assert batch.shape == (nodes.shape[0],)
    np.testing.assert_array_equal(batch, scalar)
    stacked = uniform_ball_potential(n, R, nodes[:40].reshape(2, 20, n))
    np.testing.assert_array_equal(stacked, batch[:40].reshape(2, 20))
    assert isinstance(uniform_ball_potential(n, R, nodes[3]), float)
    const = (R * R / 2.0 if n == 3
             else R * R * (1.0 - 2.0 * math.log(R)) / 4.0)
    dotted = np.array([const - float(np.dot(x, x)) / (2.0 * n)
                       for x in nodes])
    np.testing.assert_allclose(batch, dotted, rtol=0,
                               atol=4 * np.spacing(np.abs(dotted).max()))


def test_uniform_ball_potential_rejects_bad_dimension():
    with pytest.raises(ValueError):
        uniform_ball_potential(4, 1.0, np.zeros(4))


@pytest.mark.parametrize("n,res", [(2, 9), (2, 13), (3, 9)])
def test_lattice_count_agrees_with_grid(n, res):
    R = 1.0
    assert ball_lattice_count(n, R, res) == build_grid(n, R, res).node_count


def test_lattice_count_monotone_in_resolution():
    counts = [ball_lattice_count(2, 1.0, r) for r in (5, 9, 13, 17, 21)]
    assert counts == sorted(counts)
    assert counts[0] >= 5


def test_import_loads_no_reference():
    # no library module imports this one; the closed form the lemma suite
    # checks the potential against lives in potential and is still exported
    code = ("import sys, jetsolve; "
            "assert 'jetsolve.oracle' not in sys.modules, sorted(sys.modules); "
            "assert 'uniform_ball_potential' in jetsolve.__all__; "
            "assert jetsolve.uniform_ball_potential(2, 1.0, [0.0, 0.0]) "
            "== 0.25")
    src = os.path.dirname(os.path.dirname(jetsolve.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
