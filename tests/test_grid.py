"""Grid geometry, finite differences, and pair sampling."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetsolve import (
    PairSet,
    ScalarField,
    build_grid,
    build_pair_set,
    fd_values,
    multi_indices,
)
import jetsolve.grid as grid_module
from jetsolve.grid import _nearest, stencil_table
from jetsolve.oracle import ball_lattice_count, fd_values_reference

# Small grids whose stencil tables hold every route: central, one-sided and
# least-squares rows (res 5 also widens the least-squares neighbor search).
FD_GRIDS = [build_grid(n, R, res) for n, R, res in
            [(2, 1.0, 5), (2, 1.0, 9), (2, 2.0, 17), (3, 1.0, 5), (3, 1.0, 9),
             (3, 1.5, 13)]]


# ---------------------------------------------------------------------------
# lattice geometry


@pytest.mark.parametrize("n,R,res", [(2, 1.0, 9), (2, 0.5, 17), (2, 2.0, 21),
                                     (3, 1.0, 9), (3, 1.5, 13)])
def test_node_count_matches_independent_enumeration(n, R, res):
    grid = build_grid(n, R, res)
    assert grid.node_count == ball_lattice_count(n, R, res)


def test_origin_node_is_exact(grid2, grid3):
    for grid in (grid2, grid3):
        assert np.all(grid.nodes[grid.origin_index] == 0.0)


def test_axis_endpoints_present(grid2):
    # the closed ball includes (+-R, 0) exactly when res is odd
    coords = grid2.nodes
    for d in range(2):
        for s in (-1.0, 1.0):
            target = np.zeros(2)
            target[d] = s * grid2.R
            hit = np.all(np.abs(coords - target) < 1e-12, axis=1)
            assert hit.any()


def test_nodes_inside_closed_ball(grid3):
    r2 = np.einsum("ij,ij->i", grid3.nodes, grid3.nodes)
    assert np.all(r2 <= grid3.R**2 * (1 + 1e-12))


def test_interior_mask_means_all_neighbors_exist(grid2, grid3):
    # interior exactly when every lattice point of the unit box is a node
    for grid in (grid2, grid3):
        present = np.ones(grid.node_count, dtype=bool)
        for off in itertools.product((-1, 0, 1), repeat=grid.n):
            lat = grid.lattice + np.asarray(off)
            inside = np.all((lat >= 0) & (lat < grid.res), axis=1)
            hit = grid.index_map[tuple(np.clip(lat, 0, grid.res - 1).T)]
            present &= inside & (hit >= 0)
        np.testing.assert_array_equal(present, grid.interior_mask)
        assert grid.boundary_mask.any() and grid.interior_mask.any()


def _row(table, grid, beta, node):
    """Neighbour indices and weights of the stencil of beta at node."""
    r = table.betas.index(beta) * grid.node_count + node
    row = slice(table.indptr[r], table.indptr[r + 1])
    return table.index[row], table.weight[row]


def test_axis_neighbor_coordinates(grid2):
    # where both axis neighbours exist, d/dx_0 is the central difference
    # on the nodes at x -+ h e_0
    table = stencil_table(grid2)
    checked = 0
    for node in range(grid2.node_count):
        lat = grid2.lattice[node]
        step = [lat + s * np.array([1, 0]) for s in (1, -1)]
        if not all(np.all((p >= 0) & (p < grid2.res)) for p in step):
            continue
        fwd, bwd = (int(grid2.index_map[tuple(p)]) for p in step)
        if fwd < 0 or bwd < 0:
            continue
        nbr, w = _row(table, grid2, (1, 0), node)
        shifted = grid2.nodes[node] + np.array([grid2.h, 0.0])
        np.testing.assert_allclose(grid2.nodes[fwd], shifted, atol=1e-12)
        assert dict(zip(nbr.tolist(), w.tolist())) == {fwd: 0.5, bwd: -0.5}
        checked += 1
    assert checked > 0


def test_corner_neighbors_compose_axis_steps(grid2):
    # the mixed-derivative corner at (+1, -1) is one step along axis 0
    # then one along axis 1, and carries weight -1/4
    table = stencil_table(grid2)
    checked = 0
    for node in grid2.interior_mask.nonzero()[0]:
        lat = grid2.lattice[node]
        step0 = int(grid2.index_map[tuple(lat + np.array([1, 0]))])
        corner = int(grid2.index_map[tuple(grid2.lattice[step0]
                                           + np.array([0, -1]))])
        np.testing.assert_allclose(grid2.nodes[corner],
                                   grid2.nodes[node]
                                   + grid2.h * np.array([1.0, -1.0]),
                                   atol=1e-12)
        nbr, w = _row(table, grid2, (1, 1), node)
        weights = dict(zip(nbr.tolist(), w.tolist()))
        assert len(weights) == 4 and weights[corner] == -0.25
        checked += 1
    assert checked > 0


def _fixed_stencils(beta, n):
    """Lattice offsets of the central and one-sided stencils, in order."""
    axes = [d for d, k in enumerate(beta) for _ in range(k)]

    def along(*steps):
        out = []
        for step in steps:
            off = [0] * n
            for d, k in zip(axes, step):
                off[d] += k
            out.append(tuple(off))
        return out

    if len(axes) == 1:
        return [along((1,), (-1,)), along((0,), (1,), (2,)),
                along((0,), (-1,), (-2,))]
    if axes[0] == axes[1]:
        return [along((1,), (0,), (-1,)), along((0,), (1,), (2,), (3,)),
                along((0,), (-1,), (-2,), (-3,))]
    return [along((1, 1), (1, -1), (-1, 1), (-1, -1))]


def test_stencil_entries_at_allowed_offsets(grid2, grid3):
    # every row is the first fixed stencil whose nodes all exist, or else a
    # least-squares fit on at least 2 * (monomial count) nearest nodes; every
    # entry sits at node + h * (lattice offset)
    for grid in (grid2, grid3, FD_GRIDS[0], FD_GRIDS[3]):
        table = stencil_table(grid)
        N, n, h = grid.node_count, grid.n, grid.h
        assert table.betas == tuple(multi_indices(n, 1) + multi_indices(n, 2))
        n_mono = (n + 1) * (n + 2) // 2
        node_at = {tuple(lat): k for k, lat in enumerate(grid.lattice)}
        for b, beta in enumerate(table.betas):
            stencils = _fixed_stencils(beta, n)
            for node in range(N):
                row = slice(table.indptr[b * N + node],
                            table.indptr[b * N + node + 1])
                nbr = table.index[row]
                off = grid.lattice[nbr] - grid.lattice[node]
                np.testing.assert_allclose(grid.nodes[nbr] - grid.nodes[node],
                                           off * h, atol=1e-12)
                base = tuple(grid.lattice[node])
                fits = [s for s in stencils
                        if all(tuple(np.add(base, o)) in node_at for o in s)]
                if fits:
                    assert set(map(tuple, off)) == set(fits[0])
                    continue
                assert nbr.size >= 2 * n_mono
                assert len(set(nbr.tolist())) == nbr.size
                dist = np.linalg.norm(grid.nodes - grid.nodes[node], axis=1)
                others = np.setdiff1d(np.arange(N), nbr)
                if others.size:
                    assert dist[nbr].max() <= dist[others].min() + 1e-12


# ---------------------------------------------------------------------------
# finite differences


def _random_quadratic(rng, n):
    A = rng.normal(size=(n, n))
    A = (A + A.T) / 2
    b = rng.normal(size=n)
    c = rng.normal()

    def fn(pts):
        return np.einsum("ki,ij,kj->k", pts, A, pts) + pts @ b + c

    return A, b, c, fn


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_fd_exact_on_quadratics(data_seed):
    # every route (central, one-sided, least-squares) on every node of 2-d
    # and 3-d grids reproduces a quadratic up to rounding
    rng = np.random.default_rng(data_seed)
    for grid in FD_GRIDS:
        n = grid.n
        A, b, c, fn = _random_quadratic(rng, n)
        vals = fn(grid.nodes)
        tol = 1e-12 * max(1.0, np.abs(vals).max()) / grid.h**2
        for beta in multi_indices(n, 1) + multi_indices(n, 2):
            axes = [d for d, k in enumerate(beta) for _ in range(k)]
            if len(axes) == 1:
                exact = 2 * (grid.nodes @ A)[:, axes[0]] + b[axes[0]]
            else:
                exact = np.full(grid.node_count, 2 * A[axes[0], axes[1]])
            err = np.abs(fd_values(grid, vals, beta) - exact).max()
            assert err <= tol, (grid.n, grid.res, beta, err, tol)


@pytest.mark.parametrize("n,R,res,K,step", [
    pytest.param(2, 1.0, 17, 12, 7, id="12"),
    pytest.param(2, 1.0, 17, 60, 7, id="60"),
    pytest.param(2, 1.0, 17, None, 7, id="None"),
    (2, 0.375, 21, 12, 1), (3, 1.0, 13, 20, 3), (3, 1.0, 13, 30, 3),
    (3, 0.375, 13, None, 97), (3, 1.0, 21, 20, 1), (3, 0.375, 21, 30, 1),
])
def test_nearest_nodes_match_full_sort(n, R, res, K, step):
    # K beyond the first lattice ball's reach makes the ball search grow,
    # and it must agree with a sort over every node on the same float
    # distances, ties by lattice index; res-21 rows are the boundary nodes
    grid = build_grid(n, R, res)
    K = K or grid.node_count
    nodes = np.arange(0, grid.node_count, step)
    if res == 21:
        nodes = np.nonzero(grid.boundary_mask)[0]
    got = _nearest(grid, nodes, K)
    keys = tuple(grid.lattice[:, d] for d in range(n - 1, -1, -1))
    for row, node in zip(got, nodes):
        diff = grid.nodes - grid.nodes[node]
        d2 = np.einsum("ij,ij->i", diff, diff)
        order = np.lexsort(keys + (d2,))
        np.testing.assert_array_equal(row, order[:K])


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_stencil_table_matches_reference(data_seed):
    # the table against the route-by-route reference, on (N,) and (N, m)
    rng = np.random.default_rng(data_seed)
    for grid in FD_GRIDS[:2] + FD_GRIDS[3:5]:
        vals = rng.normal(size=(grid.node_count, 2))
        for beta in multi_indices(grid.n, 1) + multi_indices(grid.n, 2):
            both = fd_values(grid, vals, beta)
            for k in range(2):
                ref = fd_values_reference(grid, vals[:, k], beta)
                got = fd_values(grid, vals[:, k], beta)
                np.testing.assert_array_equal(both[:, k], got)
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
            o = grid.origin_index
            np.testing.assert_array_equal(fd_values(grid, vals, beta, node=o),
                                          both[o])


def _fits_rank_then_pinv(grid, nodes):
    # the fits as two SVDs compute them: np.linalg.matrix_rank, then
    # np.linalg.pinv of the full-rank matrices
    mono = np.asarray([b for order in (0, 1, 2)
                       for b in multi_indices(grid.n, order)])
    axes = np.arange(grid.n)
    nm, N = mono.shape[0], grid.node_count
    K = min(N, 2 * nm)
    groups = []
    while nodes.size:
        nbr = grid_module._nearest(grid, nodes, K)
        xi = (grid.nodes[nbr] - grid.nodes[nodes, None, :]) / grid.h
        powers = xi[:, :, None, :] ** np.arange(3)[:, None]
        V = np.prod(powers[:, :, mono, axes], axis=-1)
        full = (np.linalg.matrix_rank(V) == nm) | (K >= N)
        if full.any():
            groups.append((nodes[full], nbr[full], np.linalg.pinv(V[full])))
        nodes = nodes[~full]
        K = min(N, K + nm)
    return groups


@pytest.mark.parametrize("n,res", [(2, 5), (2, 9), (2, 21), (2, 33), (3, 5),
                                   (3, 9), (3, 13)])
def test_stencil_fits_match_rank_and_pinv(n, res, monkeypatch):
    # one SVD per fit gives bitwise the tables of matrix_rank + pinv
    for k in (0, 3, 7):
        R = 0.25 * 1.5**k
        table = stencil_table(build_grid(n, R, res))
        with monkeypatch.context() as patch:
            patch.setattr(grid_module, "_quadratic_fits", _fits_rank_then_pinv)
            want = stencil_table(build_grid(n, R, res))
        np.testing.assert_array_equal(table.indptr, want.indptr)
        np.testing.assert_array_equal(table.index, want.index)
        np.testing.assert_array_equal(table.weight.view(np.int64),
                                      want.weight.view(np.int64))


def test_fd_values_everywhere_finite(grid3, rng):
    vals = rng.normal(size=grid3.node_count)
    for beta in [(1, 0, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1)]:
        out = fd_values(grid3, vals, beta)
        assert np.all(np.isfinite(out))


def test_fd_rejects_bad_multi_index(grid2):
    with pytest.raises(ValueError):
        fd_values(grid2, np.zeros(grid2.node_count), (3, 0))
    with pytest.raises(ValueError):
        fd_values(grid2, np.zeros(grid2.node_count), (1, 0, 0))
    with pytest.raises(ValueError):
        fd_values(grid2, np.zeros(grid2.node_count + 1), (1, 0))


# ---------------------------------------------------------------------------
# fields


def test_scalar_field_validates_shape_and_finiteness(grid2):
    with pytest.raises(ValueError):
        ScalarField(grid2, np.zeros(grid2.node_count - 1))
    bad = np.zeros(grid2.node_count)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        ScalarField(grid2, bad)


# ---------------------------------------------------------------------------
# pair sets


def test_small_grid_uses_all_pairs():
    grid = build_grid(2, 1.0, 9)
    ps = build_pair_set(grid, seed=0)
    assert ps.complete
    N = grid.node_count
    assert ps.size == N * (N - 1) // 2


def test_pair_cap_respected():
    grid = build_grid(3, 1.0, 17)
    cap = 50_000
    ps = build_pair_set(grid, seed=0, cap=cap)
    assert not ps.complete
    assert ps.size <= cap
    assert np.all(ps.first != ps.second)
    assert np.all(ps.dist > 0)


def test_antipodal_and_origin_pairs_forced():
    grid = build_grid(3, 1.0, 17)
    ps = build_pair_set(grid, seed=0, cap=50_000)
    # the origin must touch every other node
    o = grid.origin_index
    touched = set(ps.second[ps.first != ps.second][ps.first[ps.first != ps.second] != o])
    joined = np.zeros(grid.node_count, dtype=bool)
    joined[ps.first[ps.second == o]] = True
    joined[ps.second[ps.first == o]] = True
    joined[o] = True
    assert joined.all()
    # every axis endpoint pairs with its antipode
    for d in range(grid.n):
        e = np.zeros(grid.n)
        e[d] = grid.R
        i = int(np.where(np.all(np.abs(grid.nodes - e) < 1e-12, axis=1))[0][0])
        j = int(np.where(np.all(np.abs(grid.nodes + e) < 1e-12, axis=1))[0][0])
        hit = ((ps.first == i) & (ps.second == j)) | ((ps.first == j) & (ps.second == i))
        assert hit.any()


def test_pair_set_deterministic():
    grid = build_grid(3, 1.0, 17)
    a = build_pair_set(grid, seed=7, cap=50_000)
    b = build_pair_set(grid, seed=7, cap=50_000)
    np.testing.assert_array_equal(a.first, b.first)
    np.testing.assert_array_equal(a.second, b.second)


@pytest.mark.parametrize("n,R,res,seed", [(2, 1.0, 21, 0), (2, 3.0, 33, 5),
                                          (3, 0.375, 13, 2), (3, 1.0, 21, 7)])
def test_pair_set_matches_row_gather(n, R, res, seed):
    # the pairs are the draws (or triu) stably sorted on their unordered
    # pair of lattice cubes of side 4, and the column-by-column gather
    # gives bitwise the row-gather distances
    grid = build_grid(n, R, res)
    ps = build_pair_set(grid, seed=seed)
    N = grid.node_count
    if ps.complete:
        first, second = np.triu_indices(N, k=1)
    else:
        first, second = grid_module._sampled_pairs(grid, seed,
                                                   grid_module.DEFAULT_PAIR_CAP)
    cube = np.unique(grid.lattice // 4, axis=0, return_inverse=True)[1]
    a, b = cube.reshape(-1)[first], cube.reshape(-1)[second]
    key = np.minimum(a, b) * (cube.max() + 1) + np.maximum(a, b)
    order = np.argsort(key, kind="stable")
    first, second = first[order], second[order]
    diff = grid.nodes[first] - grid.nodes[second]
    np.testing.assert_array_equal(ps.first, first)
    np.testing.assert_array_equal(ps.second, second)
    np.testing.assert_array_equal(ps.dist,
                                  np.sqrt(np.einsum("ij,ij->i", diff, diff)))


def test_from_pairs_rejects_degenerate():
    grid = build_grid(2, 1.0, 9)
    with pytest.raises(ValueError):
        PairSet.from_pairs(grid, [0, 1], [0, 1])
