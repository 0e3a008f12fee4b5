"""Grid geometry, finite differences, and pair sampling."""

import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetsolve import (
    PairSet,
    Probe,
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
        assert (~grid.interior_mask).any() and grid.interior_mask.any()


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
    # and it must agree with a sort over every node on the integer squared
    # lattice distance, ties by the unit grid's float squared distance, then
    # by lattice index; res-21 rows are the boundary nodes
    grid = build_grid(n, R, res)
    K = K or grid.node_count
    nodes = np.arange(0, grid.node_count, step)
    if res == 21:
        nodes = np.nonzero(~grid.interior_mask)[0]
    got = _nearest(grid.ball, nodes, K)
    keys = tuple(grid.lattice[:, d] for d in range(n - 1, -1, -1))
    unit = build_grid(n, 1.0, res).nodes
    for row, node in zip(got, nodes):
        offset = grid.lattice - grid.lattice[node]
        d2 = np.einsum("ij,ij->i", offset, offset)
        du = unit - unit[node]
        order = np.lexsort(keys + (np.einsum("ij,ij->i", du, du), d2))
        np.testing.assert_array_equal(row, order[:K])


@pytest.mark.parametrize("n,res", [(2, 17), (3, 7), (3, 13)])
def test_nearest_nodes_follow_float_distance_at_powers_of_two(n, res):
    # at R = 2^k the order is that of a sort on the grid's own float squared
    # distance, ties by lattice index: such grids keep the neighbours that
    # sort gives
    K = 2 * len(multi_indices(n, 0) + multi_indices(n, 1)
                + multi_indices(n, 2))
    for R in (0.25, 1.0, 4.0):
        grid = build_grid(n, R, res)
        nodes = np.nonzero(~grid.interior_mask)[0]
        got = _nearest(grid.ball, nodes, K)
        keys = tuple(grid.lattice[:, d] for d in range(n - 1, -1, -1))
        for row, node in zip(got, nodes):
            diff = grid.nodes - grid.nodes[node]
            order = np.lexsort(keys + (np.einsum("ij,ij->i", diff, diff),))
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


def _fit_monomials(n):
    return np.asarray([b for order in (0, 1, 2)
                       for b in multi_indices(n, order)])


def _fits_rank_then_pinv(ball, nodes):
    # the fits as two SVDs compute them: np.linalg.matrix_rank, then
    # np.linalg.pinv of the full-rank matrices, on integer lattice offsets
    mono = _fit_monomials(ball.n)
    axes = np.arange(ball.n)
    nm, N = mono.shape[0], ball.node_count
    K = min(N, 2 * nm)
    groups = []
    while nodes.size:
        nbr = grid_module._nearest(ball, nodes, K)
        xi = (ball.lattice[nbr] - ball.lattice[nodes, None, :]).astype(float)
        powers = xi[:, :, None, :] ** np.arange(3)[:, None]
        V = np.prod(powers[:, :, mono, axes], axis=-1)
        full = (np.linalg.matrix_rank(V) == nm) | (K >= N)
        if full.any():
            groups.append((nodes[full], nbr[full], np.linalg.pinv(V[full])))
        nodes = nodes[~full]
        K = min(N, K + nm)
    return groups


def _class_firsts(ball, groups):
    """The nodes whose own fits the class fits keep: the first node of
    each symmetry class, per group of one K."""
    perm = grid_module._symmetries(ball.n, _fit_monomials(ball.n))[0]
    return np.concatenate([
        nodes[grid_module._fit_classes(ball, nodes, nbr, perm)[0]]
        for nodes, nbr, _ in groups])


@pytest.mark.parametrize("n,res", [(2, 5), (2, 9), (2, 21), (2, 33), (3, 5),
                                   (3, 9), (3, 13)])
def test_stencil_fits_match_rank_and_pinv(n, res, monkeypatch):
    # the class fits pick the neighbours of per-node matrix_rank + pinv
    # fits, bitwise (the table is R-free, see test_stencil_table_is_r_free);
    # each class's first node keeps its direct fit's weights bitwise, and
    # the nodes mapped from it are the same least-squares solution, rounded
    # another way
    table = stencil_table(build_grid(n, 1.0, res))
    direct = []

    def record(ball, nodes):
        groups = _fits_rank_then_pinv(ball, nodes)
        direct.extend(groups)
        return groups

    with monkeypatch.context() as patch:
        patch.setattr(grid_module, "_quadratic_fits", record)
        grid = build_grid(n, 1.0, res)
        want = stencil_table(grid)
    np.testing.assert_array_equal(table.indptr, want.indptr)
    np.testing.assert_array_equal(table.index, want.index)
    rows = np.repeat(np.arange(want.indptr.size - 1), np.diff(want.indptr))
    firsts = np.isin(rows % grid.node_count, _class_firsts(grid.ball, direct))
    np.testing.assert_array_equal(table.weight[firsts].view(np.int64),
                                  want.weight[firsts].view(np.int64))
    scale = np.maximum.reduceat(np.abs(want.weight), want.indptr[:-1])[rows]
    assert np.all(np.abs(table.weight - want.weight) <= 1e-12 * scale)


@pytest.mark.parametrize("n,res", [(2, 9), (2, 33), (3, 9), (3, 21)])
def test_mapped_fits_reproduce_quadratics(n, res):
    # every least-squares row, fitted or mapped, is exact on the monomials
    # of degree <= 2 in lattice offsets: beta! on its own, 0 on the others
    grid = build_grid(n, 1.0, res)
    table, N = stencil_table(grid), grid.node_count
    mono = _fit_monomials(n)
    widths = np.diff(table.indptr)
    fitted = np.nonzero(widths >= 2 * mono.shape[0])[0]
    assert fitted.size
    for row in fitted:
        entries = slice(table.indptr[row], table.indptr[row + 1])
        node, beta = row % N, table.betas[row // N]
        off = grid.lattice[table.index[entries]] - grid.lattice[node]
        terms = (table.weight[entries, None]
                 * np.prod(off[:, None, :] ** mono, axis=-1))
        want = [float(np.prod([math.factorial(k) for k in beta]))
                if tuple(b) == beta else 0.0 for b in mono]
        assert np.all(np.abs(terms.sum(axis=0) - want)
                      <= 1e-12 * np.abs(terms).sum(axis=0).clip(min=1.0))


def test_fits_run_once_per_symmetry_class(monkeypatch):
    # at 3D res 21, 1440 nodes need a fit; the full-rank ones fall into
    # 207 classes at the first K and 19 at the second, and one node per
    # class meets an SVD (212 classes at the first K, with those whose rank
    # falls short there, and 19 at the second)
    svd_inputs, fitted = [], []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        svd_inputs.append(a.shape[0])
        return svd(a, *args, **kwargs)

    def fits(ball, nodes):
        groups = quadratic_fits(ball, nodes)
        fitted.extend(groups)
        return groups

    quadratic_fits = grid_module._quadratic_fits
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(grid_module, "_quadratic_fits", fits)
    grid = build_grid(3, 1.0, 21)
    stencil_table(grid)
    assert sum(nodes.size for nodes, _, _ in fitted) == 1440
    assert _class_firsts(grid.ball, fitted).size <= 226
    assert sum(svd_inputs) <= 212 + 19


def test_fd_values_everywhere_finite(grid3, rng):
    vals = rng.normal(size=grid3.node_count)
    for beta in [(1, 0, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1)]:
        out = fd_values(grid3, vals, beta)
        assert np.all(np.isfinite(out))


def test_fd_rejects_node_out_of_range(grid2):
    # a row index past either end of one multi-index's rows would read
    # another multi-index's rows, -1 must not wrap to the last node, and a
    # bool is no node index, though True == 1
    vals = np.arange(grid2.node_count, dtype=float)
    N = grid2.node_count
    for beta, node in [((0, 1), -1), ((0, 1), N), ((1, 0), -1),
                       ((1, 1), 0.5), ((0, 2), N), ((0, 1), True),
                       ((2, 0), np.bool_(False)), ((1, 0), True)]:
        with pytest.raises(ValueError, match="node"):
            fd_values(grid2, vals, beta, node=node)
    for beta in [(1, 0), (0, 1), (2, 0)]:
        full = fd_values(grid2, vals, beta)
        for node in (0, np.int64(N - 1)):
            assert fd_values(grid2, vals, beta, node=node) == full[node]


def test_fd_rejects_bad_multi_index(grid2):
    with pytest.raises(ValueError):
        fd_values(grid2, np.zeros(grid2.node_count), (3, 0))
    # order 0 is the values themselves, not a derivative
    with pytest.raises(ValueError, match="order 1 or 2"):
        fd_values(grid2, np.zeros(grid2.node_count), (0, 0))
    with pytest.raises(ValueError):
        fd_values(grid2, np.zeros(grid2.node_count), (1, 0, 0))
    with pytest.raises(ValueError):
        fd_values(grid2, np.zeros(grid2.node_count + 1), (1, 0))
    with pytest.raises(ValueError, match="order"):
        grid_module.fd_derivatives(grid2, np.zeros(grid2.node_count), 3)


# ---------------------------------------------------------------------------
# probe values on the grid


def test_probe_values_validate_shape_and_finiteness(grid2):
    def zeros(pts):
        return np.zeros(pts.shape[0])

    def with_nan(pts):
        out = zeros(pts)
        out[0] = np.nan
        return out

    short = Probe("short", lambda pts: zeros(pts)[1:],
                  lambda beta, pts: zeros(pts)[1:])
    for beta in (None, (1, 0)):
        with pytest.raises(ValueError, match="node count"):
            short.values(grid2, beta)
    # a non-finite value, or a non-finite derivative alone
    nan_value = Probe("nan", with_nan, lambda beta, pts: zeros(pts))
    nan_hessian = Probe("nan d2", zeros, lambda beta, pts: with_nan(pts))
    for probe, beta in ((nan_value, None), (nan_hessian, (0, 2))):
        with pytest.raises(ValueError, match="finite"):
            probe.values(grid2, beta)
    assert not nan_hessian.values(grid2).any()


# ---------------------------------------------------------------------------
# pair sets


def test_small_grid_uses_all_pairs():
    grid = build_grid(2, 1.0, 9)
    ps = build_pair_set(grid, seed=0)
    assert ps.complete
    N = grid.node_count
    assert ps.size == N * (N - 1) // 2


def test_pair_cap_respected(monkeypatch):
    grid = build_grid(3, 1.0, 17)
    cap = 50_000
    monkeypatch.setattr(grid_module, "PAIR_CAP", cap)
    ps = build_pair_set(grid, seed=0)
    assert not ps.complete
    assert ps.drawn == cap
    assert ps.size <= cap
    assert np.all(ps.first != ps.second)
    assert np.all(ps.unit.dist > 0)
    # a cap that cannot hold the forced pairs, two per node
    monkeypatch.setattr(grid_module, "PAIR_CAP", 2 * grid.node_count - 1)
    with pytest.raises(ValueError, match="pair cap"):
        build_pair_set(build_grid(3, 1.0, 17))


def test_antipodal_and_origin_pairs_forced(monkeypatch):
    grid = build_grid(3, 1.0, 17)
    monkeypatch.setattr(grid_module, "PAIR_CAP", 50_000)
    ps = build_pair_set(grid, seed=0)
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


def test_pair_set_deterministic(monkeypatch):
    # two lattice balls, so the second set is built anew, not shared
    monkeypatch.setattr(grid_module, "PAIR_CAP", 50_000)
    a = build_pair_set(build_grid(3, 1.0, 17), seed=7)
    b = build_pair_set(build_grid(3, 1.0, 17), seed=7)
    np.testing.assert_array_equal(a.first, b.first)
    np.testing.assert_array_equal(a.second, b.second)


@pytest.mark.parametrize("n,R,res,seed", [(2, 1.0, 21, 0), (2, 3.0, 33, 5),
                                          (3, 0.375, 13, 2), (3, 1.0, 21, 7)])
def test_pair_set_matches_row_gather(n, R, res, seed):
    # the pairs are the draws (or triu) stably sorted on their unordered
    # pair of lattice cubes of side 4, and the distances at R = 1 are
    # bitwise unit_h * sqrt(d2) of their integer squared lattice distances
    grid = build_grid(n, R, res)
    ps = build_pair_set(grid, seed=seed)
    N = grid.node_count
    if ps.complete:
        first, second = np.triu_indices(N, k=1)
    else:
        first, second = grid_module._sampled_pairs(grid, seed,
                                                   grid_module.PAIR_CAP)
    cube = np.unique(grid.lattice // 4, axis=0, return_inverse=True)[1]
    a, b = cube.reshape(-1)[first], cube.reshape(-1)[second]
    key = np.minimum(a, b) * (cube.max() + 1) + np.maximum(a, b)
    order = np.argsort(key, kind="stable")
    first, second = first[order], second[order]
    offset = grid.lattice[first] - grid.lattice[second]
    np.testing.assert_array_equal(ps.first, first)
    np.testing.assert_array_equal(ps.second, second)
    d2 = np.einsum("ij,ij->i", offset, offset)
    unit = ps.unit
    np.testing.assert_array_equal(unit.dist,
                                  grid.ball.unit_h * np.sqrt(d2))
    # the ball keeps the integer offsets, read-only, one int8 row per axis
    key = ("pairs",) if ps.complete else ("pairs", seed)
    assert grid.ball._shared[key] is unit
    assert unit.offset.dtype == np.int8 and unit.offset.flags.c_contiguous
    assert not unit.offset.flags.writeable and not unit.dist.flags.writeable
    np.testing.assert_array_equal(unit.offset, offset.T)
    # R times the distance at R = 1 is within 4 ulp of the row gather of
    # node coordinates, counted per pair at the scale of the gather's own
    # error: one ulp of the larger coordinate it subtracts on each axis,
    # plus one of the distance.  An ulp of the distance alone is too fine,
    # since the gather rounds at the coordinates' scale (0.3 - 0.2 on a
    # res-21 unit grid reads 0.09999999999999987, 10 ulp of 0.1)
    diff = grid.nodes[first] - grid.nodes[second]
    gather = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    larger = np.maximum(np.abs(grid.nodes[first]), np.abs(grid.nodes[second]))
    ulp = np.spacing(larger).sum(axis=1) + np.spacing(gather)
    assert np.all(np.abs(grid.R * unit.dist - gather) <= 4 * ulp)
    # a set of given pairs computes its offsets and distances the same way
    given = PairSet(grid, grid_module._bucketed(
        grid.ball, first[::7].copy(), second[::7].copy(), False,
        first[::7].shape[0]))
    np.testing.assert_array_equal(given.unit.dist, unit.dist[::7])
    np.testing.assert_array_equal(given.unit.offset, unit.offset[:, ::7])


@pytest.mark.parametrize("n,R,res", [(2, 1.0, 21), (2, 0.5625, 21),
                                     (3, 0.6, 13), (2, 1.0, 33)])
def test_pair_steps_are_h_times_integer_offsets(n, R, res):
    # each step is h times the integer lattice offset, one rounding:
    # bitwise, whatever the float node coordinates round to
    grid = build_grid(n, R, res)
    ps = build_pair_set(grid)
    offset = grid.lattice[ps.first] - grid.lattice[ps.second]
    steps = ps.steps()
    assert len(steps) == n
    for d in range(n):
        assert steps[d].dtype == np.float64 and steps[d].flags.c_contiguous
        want = grid.h * offset[:, d].astype(np.float64)
        assert steps[d].tobytes() == want.tobytes()
    # the node gather rounds at the coordinates' scale: on 2D res 21 at
    # R = 1 it misses h times the offset on many steps, while h = 1/16 on
    # res 33 makes every node, and so every gathered step, exact
    gathered = grid.nodes[ps.first] - grid.nodes[ps.second]
    exact = np.all(gathered == np.stack(steps, axis=1), axis=1)
    assert exact.all() == (res == 33)


# ---------------------------------------------------------------------------
# one lattice ball shared by the grids of every radius


def _grid_bytes(grid, seed):
    """The bytes of everything a grid, its stencil table and its pair set
    hold, in a fixed order."""
    table = stencil_table(grid)
    ps = build_pair_set(grid, seed=seed)
    b = ps.buckets
    arrays = [grid.nodes, grid.lattice, grid.index_map, grid.interior_mask,
              table.indptr, table.index, table.weight,
              ps.first, ps.second, ps.unit.dist, ps.unit.offset,
              b.node_order, b.cube_start, b.indptr, b.cube_a, b.cube_b,
              ps.unit.bucket_min_dist_pow(0.5)]
    return ([a.tobytes() for a in arrays]
            + [(grid.origin_index, grid.h.hex(), ps.complete)])


@pytest.mark.parametrize("n,res,seed,radii", [
    (2, 21, 0, [0.25 * 1.5**k for k in range(8)]),
    (3, 9, 0, [0.25 * 1.5**k for k in range(8)]),
    (2, 33, 5, [3.0, 1.5]),          # a sampled set
])
def test_shared_ball_builds_equal_fresh_builds(n, res, seed, radii):
    # grids, stencil tables and pair sets built on one ball, each radius
    # after the ball's tables were filled by the radii before it, hold
    # bitwise what a grid with a ball of its own holds
    ball = grid_module.LatticeBall(n, res)
    shared_pairs = []
    for R in radii:
        grid = build_grid(n, R, res, ball)
        assert grid.ball is ball
        assert _grid_bytes(grid, seed) == _grid_bytes(build_grid(n, R, res),
                                                      seed)
        shared_pairs.append(build_pair_set(grid, seed=seed))
    # every array of the pairs, distances included, is one for every
    # radius: a pair set is its grid plus the ball's unit pairs
    assert len({id(ps.unit) for ps in shared_pairs}) == 1
    assert all(np.shares_memory(ps.first, ps.take_ids()[0])
               for ps in shared_pairs)
    assert shared_pairs[0].complete == (res != 33)


def test_ball_must_fit_the_grid():
    ball = grid_module.LatticeBall(2, 11)
    for n, res in [(2, 9), (3, 11)]:
        with pytest.raises(ValueError, match="lattice ball"):
            build_grid(n, 1.0, res, ball)
    with pytest.raises(ValueError, match="res must be odd"):
        grid_module.LatticeBall(2, 10)


def test_shared_arrays_are_read_only():
    # an in-place write through any grid or pair set cannot reach the
    # arrays every other grid of the ball reads
    ball = grid_module.LatticeBall(2, 13)
    grid = build_grid(2, 1.0, 13, ball)
    stencil_table(grid)
    ps = build_pair_set(grid)
    b = ps.buckets
    for array in (grid.lattice, grid.index_map, grid.interior_mask,
                  ps.first, ps.second, b.node_order, b.cube_start, b.indptr,
                  b.cube_a, b.cube_b):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0
    table = stencil_table(grid)
    for array in (table.indptr, table.index, table.weight):
        assert not array.flags.writeable
    # the scans gather through the writeable arrays behind the read-only
    # ids: take copies a read-only index array on every call
    for ids, view in zip(ps.take_ids(), (ps.first, ps.second)):
        assert ids.flags.writeable and np.shares_memory(ids, view)
    # and so do the table passes, through the array behind table.index
    assert table._take_index.flags.writeable
    assert np.shares_memory(table._take_index, table.index)
    np.testing.assert_array_equal(table._take_index, table.index)


def test_ball_keeps_no_grid_alive():
    # the ball holds only R-free arrays: a grid and its pair set go with
    # their last reference while the ball, and the stencil table on it,
    # live on
    ball = grid_module.LatticeBall(2, 17)
    gc.disable()
    try:
        grid = build_grid(2, 0.5, 17, ball)
        ps = build_pair_set(grid, seed=3)
        fd_values(grid, np.ones(grid.node_count), (2, 0))
        table = stencil_table(grid)
        refs = [weakref.ref(grid), weakref.ref(ps)]
        del grid, ps
        assert [ref() for ref in refs] == [None] * 2
    finally:
        gc.enable()
    assert ball._shared["stencil_table"] is table


@pytest.mark.parametrize("n,res", [(2, 21), (3, 13)])
def test_stencil_table_is_r_free(n, res):
    # the fits read integer offsets and integer neighbour distances, so
    # tables built on fresh balls at any radius are bitwise equal
    radii = [0.25 * 1.5**k for k in range(8)]
    tables = [stencil_table(build_grid(n, R, res)) for R in radii]
    for table in tables[1:]:
        assert table.betas == tables[0].betas
        for name in ("indptr", "index", "weight"):
            assert (getattr(table, name).tobytes()
                    == getattr(tables[0], name).tobytes())


def test_grids_of_one_ball_share_one_table():
    ball = grid_module.LatticeBall(3, 9)
    grids = [build_grid(3, R, 9, ball) for R in (0.25, 1.0, 3.0)]
    assert len({id(stencil_table(grid)) for grid in grids}) == 1
