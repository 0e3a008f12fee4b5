"""Weighted Hoelder norms, jet norms, and the executable norm lemmas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetsolve import (
    Probe,
    build_grid,
    build_pair_set,
    lemma_battery,
    multi_indices,
    polynomial,
    run_lemma_suite,
    taylor_remainder_ratio,
    weighted_norm_values,
    with_zero_jet,
)
from jetsolve import PairSet, holder, verify
import jetsolve.grid as grid_module
from jetsolve.grid import PAIR_CAP, _bucketed, _sampled_pairs
from jetsolve.holder import (_quotient_bounds, banach_algebra_holds,
                             comparison_base, max_weighted_norm,
                             norm_comparison_holds, probe_jet,
                             taylor_remainder_holds, taylor_work,
                             weighted_norm_bounds)
from jetsolve.oracle import (max_weighted_norm_reference,
                             quotient_bounds_reference,
                             taylor_remainder_ratio_reference)
from jetsolve.probes import coordinate_probe


def _unit_scan(values, alpha, pairs):
    """(sup, seminorm, weighted norm) of each column of values (N, k) from
    the one-line scan of every pair on the distances at R = 1 that the
    engine reads: a max quotient semi_1, the weighted norm sup + 2^alpha
    semi_1 and the seminorm semi_1 / R^alpha.  The oracle's references take
    their distances from the nodes instead."""
    v = np.asarray(values, dtype=np.float64)
    sup = np.abs(v).max(axis=0)
    semi = (np.abs(v[pairs.first] - v[pairs.second])
            / pairs.unit.dist_pow(alpha)[:, None]).max(axis=0)
    return sup, semi / pairs.grid.R**alpha, sup + 2.0**alpha * semi


def _jet_norms(probe, alpha, pairs):
    """The probe's weighted jet norms (order 0, 1, 2), each the largest
    weighted norm over its exact derivatives of that order, measured
    directly rather than from probe_jet."""
    grid = pairs.grid
    return tuple(max_weighted_norm(
        np.stack([probe.values(grid, beta)
                  for beta in multi_indices(grid.n, order)], axis=1),
        alpha, pairs) for order in (0, 1, 2))


def _close_to_reference(got, want):
    """got within 1e-12 relative of the oracle's want, or both the same
    non-finite value."""
    if not np.isfinite(want):
        return float(got).hex() == float(want).hex()
    return abs(got - want) <= 1e-12 * abs(want)


# ---------------------------------------------------------------------------
# exact norm values


@pytest.mark.parametrize("R", [0.1, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("n", [2, 3])
def test_coordinate_norm_is_three_radii(R, alpha, n):
    # sup |x_d| = R; the seminorm peaks on the antipodal axis pair at
    # 2R/(2R)^a, so the weighted norm is R + (2R)^a * (2R)^(1-a) = 3R.
    grid = build_grid(n, R, 9)
    pairs = build_pair_set(grid, seed=0)
    for d in range(n):
        values = coordinate_probe(n, d).values(grid)
        got = weighted_norm_values(values, alpha, pairs)[2]
        assert abs(got - 3.0 * R) <= 1e-12 * max(1.0, R)


def test_constant_norm_is_absolute_value(grid2, pairs2):
    values = np.full(grid2.node_count, -2.5)
    assert weighted_norm_values(values, 0.5, pairs2) == (2.5, 0.0, 2.5)


def test_cubic_jet_norm_frozen_value(grid2, pairs2):
    # f = x1^3 at R = 1: the largest order-2 entry is d11 f = 6 x1 with
    # sup 6 and seminorm 6 (2R)^(1-a), so the weighted norm is
    # 6 + (2R)^a 6 (2R)^(1-a) = 6 + 12 R = 18.
    f = polynomial("x1_cubed", {(3, 0): 1.0})
    jet = probe_jet(f, 0.5, pairs2)
    order1 = max_weighted_norm(np.stack(jet.grads, axis=1), 0.5, pairs2)
    order2 = float(jet.hess_norms[2].max())
    assert order2 == pytest.approx(18.0, rel=1e-12)
    assert order2 >= order1 / (3 * 2 * 1.0)


# ---------------------------------------------------------------------------
# norm axioms (property-based)


def _poly_field(grid, rng):
    terms = {}
    for _ in range(rng.integers(1, 4)):
        e = tuple(int(v) for v in rng.integers(0, 3, size=grid.n))
        terms[e] = float(rng.normal())
    return polynomial("rand", terms).values(grid)


def _norm(values, alpha, pairs):
    return weighted_norm_values(values, alpha, pairs)[2]


def _banach_holds(f, g, alpha, pairs):
    return banach_algebra_holds(_norm(f, alpha, pairs), _norm(g, alpha, pairs),
                                _norm(f * g, alpha, pairs))


def _comparison_holds(probe, alpha, pairs):
    return norm_comparison_holds(_jet_norms(probe, alpha, pairs),
                                 comparison_base(pairs.grid))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.1, 0.9))
def test_norm_homogeneity_and_triangle(seed, alpha):
    grid = build_grid(2, 1.0, 9)
    pairs = build_pair_set(grid, seed=0)
    rng = np.random.default_rng(seed)
    f = _poly_field(grid, rng)
    g = _poly_field(grid, rng)
    c = float(rng.normal())
    nf = _norm(f, alpha, pairs)
    ng = _norm(g, alpha, pairs)
    assert _norm(c * f, alpha, pairs) == pytest.approx(
        abs(c) * nf, rel=1e-12, abs=1e-12)
    assert _norm(f + g, alpha, pairs) <= nf + ng + 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_banach_algebra_on_random_polynomials(seed):
    grid = build_grid(2, 1.0, 9)
    pairs = build_pair_set(grid, seed=0)
    rng = np.random.default_rng(seed)
    f = _poly_field(grid, rng)
    g = _poly_field(grid, rng)
    assert _banach_holds(f, g, 0.5, pairs)


def test_banach_algebra_on_battery(grid2, pairs2):
    battery = lemma_battery(2)
    fields = [p.values(grid2) for p in battery[:8]]
    for f in fields:
        for g in fields:
            assert _banach_holds(f, g, 0.5, pairs2)


# ---------------------------------------------------------------------------
# Taylor remainder and comparison lemmas


def test_taylor_ratio_zero_for_quadratics(grid2, pairs2):
    f = polynomial("quad", {(2, 0): 1.0, (1, 1): -2.0, (0, 0): 3.0})
    assert taylor_remainder_ratio(f, 0.5, pairs2) == 0.0


def test_taylor_remainder_on_battery(grid2, pairs2):
    for probe in lemma_battery(2):
        ratio = taylor_remainder_ratio(probe, 0.5, pairs2)
        assert ratio <= 1.0 + 1e-9, probe.name
        assert taylor_remainder_holds(ratio)


def test_taylor_remainder_3d(grid3, pairs3):
    for probe in lemma_battery(3)[:10]:
        assert taylor_remainder_holds(
            taylor_remainder_ratio(probe, 0.5, pairs3)), probe.name


@pytest.mark.parametrize("n,res", [(2, 9), (3, 9), (2, 33), (3, 17)])
def test_taylor_ratio_matches_reference_bitwise(n, res):
    # res 9 uses every pair; 2-d res 33 and 3-d res 17 sample them
    grid = build_grid(n, 1.0, res)
    pairs = build_pair_set(grid, seed=0)
    assert pairs.complete == (res == 9)
    cubic = polynomial("x1_cubed", {(3,) + (0,) * (n - 1): 1.0})

    def no_hessian(beta, pts):
        if sum(beta) == 2:
            return np.zeros(pts.shape[0])
        return cubic.deriv(beta, pts)

    # a wrong (zero) Hessian bounds nothing: the ratio is infinite
    probes = lemma_battery(n) + [
        cubic, Probe("x1_cubed_no_hessian", cubic.fn, no_hessian)]
    got = [taylor_remainder_ratio(p, 0.5, pairs).hex() for p in probes]
    want = [taylor_remainder_ratio_reference(p, 0.5, pairs).hex()
            for p in probes]
    assert got == want
    assert got[-1] == float("inf").hex()
    # as the lemma suite calls it: each probe's jet measured beforehand,
    # and one set of work buffers for all of them, its scratch rows left
    # dirty by the probe before
    work = taylor_work(pairs)
    work[0][:] = np.nan
    assert [taylor_remainder_ratio(p, 0.5, pairs, probe_jet(p, 0.5, pairs),
                                   work).hex() for p in probes] == want


@pytest.mark.parametrize("n,res", [(2, 9), (3, 5)])
def test_taylor_blocks_match_one_whole_scan(n, res, monkeypatch):
    # block edges one pair, seven pairs, one short of the set, the set and
    # one past it: each blocked scan is bitwise the scan of the whole set
    # in one block, for finite and infinite ratios alike
    grid = build_grid(n, 1.0, res)
    pairs = build_pair_set(grid, seed=0)
    cubic = polynomial("x1_cubed", {(3,) + (0,) * (n - 1): 1.0})
    probes = lemma_battery(n) + [Probe(
        "x1_cubed_no_hessian", cubic.fn,
        lambda beta, pts: (np.zeros(pts.shape[0]) if sum(beta) == 2
                           else cubic.deriv(beta, pts)))]
    jets = [probe_jet(p, 0.5, pairs) for p in probes]

    def scan(block):
        monkeypatch.setattr(holder, "_TAYLOR_BLOCK", block)
        work = taylor_work(pairs)
        assert work[0].shape == (4, min(block, pairs.size))
        return [taylor_remainder_ratio(p, 0.5, pairs, jet, work).hex()
                for p, jet in zip(probes, jets)]

    whole = scan(pairs.size)
    assert whole[-1] == float("inf").hex()
    for block in (1, 7, pairs.size - 1, pairs.size + 1):
        assert scan(block) == whole, block


@pytest.mark.parametrize("n,R,res", [(2, 3.0, 21), (2, 0.5625, 33),
                                     (3, 0.75, 9), (3, 1.3, 13)])
def test_taylor_ratio_matches_reference_at_any_radius(n, R, res):
    # the scan reads h times the integer offsets and R^(2 + alpha) times
    # the distances at R = 1, the reference the node gathers: on grids
    # whose h is no power of two they agree to rounding
    grid = build_grid(n, R, res)
    pairs = build_pair_set(grid, seed=1)
    for probe in lemma_battery(n):
        got = taylor_remainder_ratio(probe, 0.5, pairs)
        want = taylor_remainder_ratio_reference(probe, 0.5, pairs)
        assert _close_to_reference(got, want), probe.name


def _unshifted_columns(probe, jet, grid):
    """A probe's order-0 and order-1 columns with its 1-jet left in."""
    return jet.values[:, None], np.stack(jet.grads, axis=1)


def test_comparison_needs_zero_jet(grid2, pairs2, monkeypatch):
    # gradient e1, then value 1, at the origin
    for probe in (coordinate_probe(2, 0), polynomial("one", {(0, 0): 1.0})):
        columns = _unshifted_columns(probe, probe_jet(probe, 0.5, pairs2),
                                     grid2)
        with pytest.raises(ValueError):
            verify._require_zero_jet(*columns, grid2)
    # the comparison block checks the columns it builds: without the shift,
    # the battery's affine probe fails the check
    monkeypatch.setattr(verify, "_zero_jet_columns", _unshifted_columns)
    with pytest.raises(ValueError, match="at origin"):
        run_lemma_suite(n=2, R=1.0, res=9)


def test_comparison_on_zero_jet_battery(grid2, pairs2):
    for probe in lemma_battery(2):
        f = with_zero_jet(probe, 2)
        assert _comparison_holds(f, 0.5, pairs2), probe.name


@pytest.mark.parametrize("n,res", [(2, 33), (3, 13)])
def test_zero_jet_order2_is_the_largest_hessian_norm(n, res):
    # subtracting the 1-jet leaves the Hessian as it is, so the probe's
    # Hessian norms, measured once, give the zero-jet probe's order-2 norm:
    # bitwise the one measured on the zero-jet probe's own Hessian
    grid = build_grid(n, 1.0, res)
    pairs = build_pair_set(grid, seed=2)
    for probe in lemma_battery(n):
        jet = probe_jet(probe, 0.5, pairs)
        zero = with_zero_jet(probe, n)
        want = _jet_norms(zero, 0.5, pairs)
        # the comparison block's columns, taken from the jet, are the
        # zero-jet probe's own exact derivatives, bitwise
        columns = verify._zero_jet_columns(probe, jet, grid)
        for order, got in enumerate(columns):
            exact = np.stack([zero.values(grid, beta)
                              for beta in multi_indices(n, order)], axis=1)
            assert got.tobytes() == exact.tobytes(), (probe.name, order)
        got = [max_weighted_norm(c, 0.5, pairs) for c in columns]
        got.append(float(jet.hess_norms[2].max()))
        assert [x.hex() for x in got] == [x.hex() for x in want], probe.name
        # the jet's Hessian norms are those of its rows, measured anew
        hess = np.stack([probe.values(grid, beta)
                         for beta in multi_indices(n, 2)], axis=1)
        for a, b in zip(jet.hess_norms, weighted_norm_values(hess, 0.5,
                                                             pairs)):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n,res", [(2, 9), (2, 33), (3, 13)])
def test_weighted_norm_bounds_hold_without_slack(n, res):
    grid = build_grid(n, 1.7, res)
    pairs = build_pair_set(grid, seed=3)
    rng = np.random.default_rng(res)
    values = np.stack([_column(k, grid, rng) for k in
                       ("smooth", "rough", "constant", "spike") * 3], axis=1)
    for alpha in (0.05, 0.5, 0.95):
        exact = weighted_norm_values(values, alpha, pairs)[2]
        assert np.all(weighted_norm_bounds(values, alpha, pairs) >= exact)


@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_comparison_other_exponents(grid2, pairs2, alpha):
    for probe in lemma_battery(2)[:6]:
        f = with_zero_jet(probe, 2)
        assert _comparison_holds(f, alpha, pairs2), probe.name


# ---------------------------------------------------------------------------
# plumbing


@pytest.mark.parametrize("n,res", [(2, 9), (2, 33), (3, 9), (3, 17)])
def test_weighted_norm_values_matches_one_line_scan(n, res):
    # the in-place scan against the plain expression, float.hex-equal, on
    # complete (res 9) and sampled pair sets; a strided column as in
    # solver_norm, and a constant field whose seminorm is 0
    grid = build_grid(n, 1.0, res)
    pairs = build_pair_set(grid, seed=3)
    assert pairs.complete == (res == 9)
    rng = np.random.default_rng(res)
    block = rng.normal(size=(grid.node_count, 3)) * [1.0, 1e-9, 1e6]
    for vals in (*block.T, np.full(grid.node_count, 2.5)):
        for alpha in (0.25, 0.5, 0.9):
            want = [float(x[0]).hex()
                    for x in _unit_scan(vals[:, None], alpha, pairs)]
            got = weighted_norm_values(vals, alpha, pairs)
            assert [x.hex() for x in got] == want


@pytest.mark.parametrize("name", ["weighted_norm_values", "max_weighted_norm",
                                  "weighted_norm_bounds"])
def test_norm_entry_points_reject_bad_input(grid2, pairs2, name):
    # every entry point reads values through the one input path: a longer
    # array would put its extra entries into the sup, a third axis is
    # refused, and a single (N,) field is taken by weighted_norm_values only
    entry = getattr(holder, name)
    n = grid2.node_count
    bad = [np.full(n + 1, 5.0), np.ones(n - 1), np.full((n + 1, 2), 5.0),
           np.ones((n, 2, 1))]
    if name != "weighted_norm_values":
        bad.append(np.ones(n))
    for values in bad:
        with pytest.raises(ValueError, match="node count"):
            entry(values, 0.5, pairs2)
    for alpha in (0.0, 1.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValueError, match="alpha"):
            entry(np.ones((n, 2)), alpha, pairs2)
    entry(np.ones((n, 2)), 0.5, pairs2)


def test_jet_norm_homogeneous_in_every_order(grid2, pairs2):
    f = polynomial("mix", {(2, 1): 0.5, (1, 0): -1.0})
    orders = _jet_norms(f, 0.5, pairs2)
    doubled = Probe("2 mix", lambda pts: 2 * f.fn(pts),
                    lambda beta, pts: 2 * f.deriv(beta, pts))
    for a, b in zip(orders, _jet_norms(doubled, 0.5, pairs2)):
        assert b == pytest.approx(2 * a, rel=1e-12)


def test_multi_indices_complete():
    assert multi_indices(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert len(multi_indices(3, 2)) == 6
    assert len(multi_indices(3, 1)) == 3


# ---------------------------------------------------------------------------
# the pruned max over fields


def _node_cube(pairs):
    """Each node's cube, read back from the bucket structure."""
    buckets = pairs.buckets
    cube = np.empty(pairs.grid.node_count, dtype=np.int64)
    sizes = np.diff(np.append(buckets.cube_start, pairs.grid.node_count))
    cube[buckets.node_order] = np.repeat(np.arange(sizes.shape[0]), sizes)
    return cube


def _bucket_of_pair(pairs):
    """Each stored pair's bucket, read from the bucket slices."""
    indptr = pairs.buckets.indptr
    return np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))


def _column(kind, grid, rng):
    x = grid.nodes
    N = grid.node_count
    if kind == "constant":
        return np.full(N, rng.normal())
    if kind == "rough":
        return rng.normal(size=N) * 10.0 ** rng.uniform(-9.0, 6.0)
    smooth = np.sin(x @ rng.normal(size=grid.n) * rng.uniform(0.5, 6.0)
                    + rng.uniform(0, 6.3)) * 10.0 ** rng.uniform(-3.0, 3.0)
    if kind != "smooth":
        # "inf2" puts inf on two nodes, whose pair quotient is nan
        nodes = rng.choice(N, size=2 if kind == "inf2" else 1, replace=False)
        smooth[nodes] = {"spike": 1e3 * np.abs(smooth).max(), "inf": np.inf,
                         "-inf": -np.inf, "inf2": np.inf, "nan": np.nan}[kind]
    return smooth


# (n, res): complete sets small enough for the plain scan (2D res 9),
# complete sets that prune (2D res 17, 3D res 9), sampled ones (res 33, 13)
_ENGINE_GRIDS = [(2, 9), (2, 17), (3, 9), (2, 33), (3, 13)]
_KINDS = ["smooth", "rough", "constant", "spike", "inf", "-inf", "inf2",
          "nan"]


def _engine_draw(case, R, kinds, seed, column_major):
    n, res = case
    grid = build_grid(n, R, res)
    pairs = build_pair_set(grid, seed=seed % 7)
    rng = np.random.default_rng(seed)
    values = np.stack([_column(k, grid, rng) for k in kinds], axis=1)
    if column_major:
        # the layout of IterateState.order2
        values = np.asfortranarray(values)
    return values, pairs


_ENGINE_DRAWS = dict(
    case=st.sampled_from(_ENGINE_GRIDS), R=st.floats(0.2, 4.0),
    alpha=st.floats(0.01, 0.99),
    kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=6),
    seed=st.integers(0, 2**31 - 1), column_major=st.booleans())


@settings(max_examples=60, deadline=None)
@given(**_ENGINE_DRAWS)
def test_max_weighted_norm_matches_full_scan(case, R, alpha, kinds, seed,
                                             column_major):
    values, pairs = _engine_draw(case, R, kinds, seed, column_major)
    # inf - inf makes the nan that all three must report
    with np.errstate(invalid="ignore"):
        got = max_weighted_norm(values, alpha, pairs)
        want = _unit_scan(values, alpha, pairs)[2].max()
        reference = max_weighted_norm_reference(values, alpha, pairs)
    assert got.hex() == want.hex()
    assert _close_to_reference(got, reference)


@settings(max_examples=60, deadline=None)
@given(**_ENGINE_DRAWS)
def test_weighted_norm_values_matches_full_scan_per_column(case, R, alpha,
                                                           kinds, seed,
                                                           column_major):
    # every column of the pruned per-column engine against the one-line
    # scan of that column alone, float.hex-equal
    values, pairs = _engine_draw(case, R, kinds, seed, column_major)
    with np.errstate(invalid="ignore"):
        got = weighted_norm_values(values, alpha, pairs)
        for k, v in enumerate(values.T):
            want = _unit_scan(v[:, None], alpha, pairs)
            assert [float(x[k]).hex() for x in got] == [
                float(x[0]).hex() for x in want]


@pytest.mark.parametrize("n,res,seed", [(2, 33, 3), (2, 17, 0), (3, 13, 1)])
def test_banach_block_matches_per_field_full_scans(n, res, seed):
    # the block's column-block norms against one plain scan per field and
    # per product, the worst ratio float.hex-equal
    grid = build_grid(n, 1.0, res)
    pairs = build_pair_set(grid, seed=seed)
    battery = lemma_battery(n)
    fields = [p.values(grid) for p in battery]

    def norm(v):
        return float(_unit_scan(v[:, None], 0.5, pairs)[2][0])

    norms = [norm(v) for v in fields]
    worst, worst_pair = 0.0, None
    for i in range(len(fields)):
        for j in range(i, len(fields)):
            ratio = norm(fields[i] * fields[j]) / (norms[i] * norms[j])
            if ratio > worst:
                worst, worst_pair = ratio, [battery[i].name, battery[j].name]
    fields = np.stack(fields, axis=1)
    block = verify._banach_block(battery, pairs, 0.5, fields,
                                 weighted_norm_values(fields, 0.5, pairs)[2])
    assert block["worst_ratio"].hex() == worst.hex()
    assert block["worst_pair"] == worst_pair
    assert block["violations"] == []


def _raw_draws(grid, seed, cap):
    """The pairs a sampled set draws, repeats kept and oriented as drawn:
    the antipodal pairs (lower id first), the rays (node, origin), then
    seeded uniform draws of distinct nodes up to cap."""
    N = grid.node_count
    anti = grid.index_map[tuple(((grid.res - 1) - grid.lattice).T)]
    idx = np.arange(N)
    mask = (anti >= 0) & (idx < anti)
    not_o = idx[idx != grid.origin_index]
    first = [idx[mask], not_o]
    second = [anti[mask], np.full(not_o.shape[0], grid.origin_index)]
    rng = np.random.default_rng(seed)
    need = cap - sum(a.shape[0] for a in first)
    while need:
        a = rng.integers(0, N, size=need + 1024)
        b = rng.integers(0, N, size=need + 1024)
        ok = a != b
        take = min(int(ok.sum()), need)
        first.append(a[ok][:take])
        second.append(b[ok][:take])
        need -= take
    return np.concatenate(first), np.concatenate(second)


def _given_pair_set(grid, first, second):
    """The pair set of the given int64 pairs, regrouped bucket by bucket
    as build_pair_set's are, in their given order and orientation inside
    each bucket, every pair counted as drawn."""
    return PairSet(grid, _bucketed(grid.ball, first.copy(), second.copy(),
                                   False, first.shape[0]))


def _complete_pair_set(grid, monkeypatch):
    """Every pair of grid, through build_pair_set with the cap raised."""
    N = grid.node_count
    monkeypatch.setattr(grid_module, "PAIR_CAP", N * (N - 1) // 2)
    pairs = build_pair_set(grid)
    assert pairs.complete
    return pairs


@pytest.mark.parametrize("n,res", [(2, 33), (3, 53)])
def test_sampled_pairs_are_the_distinct_draws(n, res):
    # 3D res 53 has 73,525 nodes: its pair keys no longer fit 32 bits
    grid = build_grid(n, 1.0, res)
    N = grid.node_count
    first, second = _sampled_pairs(grid, 4, PAIR_CAP)
    raw = _raw_draws(grid, 4, PAIR_CAP)
    assert first.dtype == second.dtype == np.int64
    assert np.all(first < second)
    np.testing.assert_array_equal(
        first * N + second, np.unique(np.minimum(*raw) * N
                                      + np.maximum(*raw)))


@pytest.mark.parametrize("n,res,seed", [(2, 17, 0), (3, 9, 0), (2, 33, 1),
                                        (3, 21, 2)])
def test_pair_buckets_hold_their_invariants(n, res, seed):
    grid = build_grid(n, 1.3, res)
    pairs = build_pair_set(grid, seed=seed)
    buckets = pairs.buckets
    N = grid.node_count
    # the stored pairs are every pair of a complete set, or the distinct
    # unordered pairs of the draws, each oriented lower -> higher, in key
    # order (lower, higher), stably sorted on the test's own bucket key
    if pairs.complete:
        stored = np.triu_indices(N, k=1)
        assert pairs.drawn == pairs.size == N * (N - 1) // 2
    else:
        raw = _raw_draws(grid, seed, PAIR_CAP)
        keys = np.unique(np.minimum(*raw) * N + np.maximum(*raw))
        stored = np.divmod(keys, N)
        assert pairs.drawn == PAIR_CAP > pairs.size == keys.size
    cells = np.unique(grid.lattice // 4, axis=0, return_inverse=True)[1]
    a, b = cells.reshape(-1)[stored[0]], cells.reshape(-1)[stored[1]]
    perm = np.lexsort((np.maximum(a, b), np.minimum(a, b)))
    np.testing.assert_array_equal(pairs.first, stored[0][perm])
    np.testing.assert_array_equal(pairs.second, stored[1][perm])
    assert np.all(pairs.first < pairs.second)
    # inside each bucket the keys rise strictly: key order, no repeat
    rising = np.diff(pairs.first * N + pairs.second) > 0
    rising[buckets.indptr[1:-1] - 1] = True
    assert rising.all()
    assert buckets.indptr[0] == 0 and buckets.indptr[-1] == pairs.size
    assert np.all(np.diff(buckets.indptr) > 0)
    assert np.all(np.diff(buckets.cube_a * 256 + buckets.cube_b) > 0)
    # cubes of 4 lattice steps while at most 256 of them hold nodes
    cube = _node_cube(pairs)
    assert cube.max() < 256
    assert np.array_equal(cells.reshape(-1), cube)
    # every pair sits in the bucket of its own unordered cube pair
    bucket = _bucket_of_pair(pairs)
    a, b = cube[pairs.first], cube[pairs.second]
    np.testing.assert_array_equal(np.minimum(a, b), buckets.cube_a[bucket])
    np.testing.assert_array_equal(np.maximum(a, b), buckets.cube_b[bucket])
    rng = np.random.default_rng(seed)
    values = np.stack([_column(k, grid, rng) for k in
                       ("smooth", "rough", "constant", "spike")], axis=1)
    for alpha in (0.05, 0.5, 0.95):
        dist_pow = pairs.unit.dist_pow(alpha)
        least = pairs.unit.bucket_min_dist_pow(alpha)
        assert np.all(dist_pow >= least[bucket])
        assert np.all(np.minimum.reduceat(dist_pow, buckets.indptr[:-1])
                      == least)
        # every pair's float quotient is within its bucket's bound, one
        # row of bounds per column
        bound = _quotient_bounds(np.ascontiguousarray(values.T), alpha, pairs)
        assert bound.shape == (values.shape[1], buckets.cube_a.size)
        quotient = (np.abs(values[pairs.first] - values[pairs.second])
                    / dist_pow[:, None])
        assert np.all(quotient.T <= bound[:, bucket])


@pytest.mark.parametrize("count,ties,small_top", [
    (1941, False, False), (5827, False, False), (400, True, False),
    (1941, False, True), (60, False, False)])
def test_floor_buckets_are_the_fewest_of_largest_bound(count, ties,
                                                       small_top):
    # the partial sort picks what a full descending sort's prefix picks:
    # the fewest buckets of largest bound holding _FLOOR_PAIRS pairs, in
    # decreasing order; with ties the picks may differ among equal bounds
    # but not in their bounds or count.  small_top gives the buckets of
    # largest bound one pair each, so the first guess of m falls short.
    rng = np.random.default_rng(count)
    size = rng.integers(1, 260, size=count)
    bound = rng.normal(size=count)
    if ties:
        size[:] = 103
        bound = np.round(bound, 1)
    if small_top:
        size[np.argsort(bound)[-300:]] = 1
    top = holder._floor_buckets(bound, size, int(size.sum()))
    rank = np.argsort(bound, kind="stable")[::-1]
    want = rank[:np.searchsorted(np.cumsum(size[rank]), 4096) + 1]
    np.testing.assert_array_equal(bound[top], bound[want])
    assert size[top].sum() >= 4096 > size[top[:-1]].sum()
    assert np.unique(top).size == top.size
    rest = np.setdiff1d(np.arange(count), top)
    assert np.all(bound[rest] <= bound[top].min())


@pytest.mark.parametrize("n,res", [(2, 33), (3, 21)])
def test_quotient_bounds_are_the_reference_rows(n, res):
    # the (k, buckets) rows are bitwise the (buckets, k) reference bounds,
    # transposed, for every column count the engine meets: one field, the
    # 2D solver norm (3 columns), the 3D one (12) and a Banach row block
    # (253), with NaN and inf among the values
    grid = build_grid(n, 1.0, res)
    pairs = build_pair_set(grid, seed=3)
    rng = np.random.default_rng(res)
    for k in (1, 3, 12, 253):
        values = np.stack([_column(_KINDS[j % len(_KINDS)], grid, rng)
                           for j in range(k)], axis=1)
        if k > 1:
            values[rng.integers(grid.node_count, size=3), 0] = np.nan
            values[rng.integers(grid.node_count, size=3), -1] = np.inf
            values[rng.integers(grid.node_count, size=3), -1] = -np.inf
        rows = np.ascontiguousarray(values.T)
        with np.errstate(invalid="ignore"):
            got = _quotient_bounds(rows, 0.5, pairs)
            want = quotient_bounds_reference(values, 0.5, pairs)
        assert got.shape == (k, pairs.buckets.cube_a.size)
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(
            want.T).tobytes()
        assert np.isnan(got).any() == (k > 1)


@pytest.mark.parametrize("n,res,seed", [(2, 33, 0), (3, 21, 0)])
def test_sampled_set_gives_the_norms_of_its_raw_draws(n, res, seed):
    # a sampled set keeps each drawn unordered pair once; a max over a
    # multiset is the max over its set, and a pair's quotient and its
    # two-direction Taylor scan are the same bit for bit in either
    # orientation, so every norm and ratio equals that of the raw draws,
    # repeats and drawn orientation kept
    grid = build_grid(n, 1.0, res)
    pairs = build_pair_set(grid, seed=seed)
    raw = _raw_draws(grid, seed, PAIR_CAP)
    N = grid.node_count
    keys = pairs.first * N + pairs.second
    assert np.all(pairs.first < pairs.second)
    assert np.unique(keys).size == pairs.size < PAIR_CAP
    np.testing.assert_array_equal(
        np.sort(keys), np.unique(np.minimum(*raw) * N + np.maximum(*raw)))
    assert pairs.drawn == PAIR_CAP
    with_repeats = _given_pair_set(grid, *raw)
    assert with_repeats.size == with_repeats.drawn == PAIR_CAP
    battery = lemma_battery(n)
    rng = np.random.default_rng(seed)
    values = np.stack([p.values(grid) for p in battery]
                      + [_column(k, grid, rng) for k in _KINDS], axis=1)
    for alpha in (0.25, 0.5, 0.9):
        with np.errstate(invalid="ignore"):
            got = weighted_norm_values(values, alpha, pairs)
            want = weighted_norm_values(values, alpha, with_repeats)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
            finite = values[:, np.isfinite(values).all(axis=0)]
            for v in (values, finite, finite[:, ::3]):
                assert (max_weighted_norm(v, alpha, pairs).hex()
                        == max_weighted_norm(v, alpha, with_repeats).hex())
    for probe in battery:
        assert (taylor_remainder_ratio(probe, 0.5, pairs).hex()
                == taylor_remainder_ratio(probe, 0.5, with_repeats).hex())


def _banach_every_product(battery, grid, pairs, alpha) -> dict:
    """The Banach block as a norm of every product gives it."""
    names = [p.name for p in battery]
    fields = np.stack([p.values(grid) for p in battery], axis=1)
    norms = weighted_norm_values(fields, alpha, pairs)[2].tolist()
    worst, worst_pair, violations = 0.0, None, []
    for i in range(len(names)):
        products = fields[:, i:i + 1] * fields[:, i:]
        for j, nfg in enumerate(weighted_norm_values(products, alpha,
                                                     pairs)[2].tolist(), i):
            if not verify.banach_algebra_holds(norms[i], norms[j], nfg):
                violations.append([names[i], names[j]])
            if norms[i] * norms[j] > 0:
                ratio = nfg / (norms[i] * norms[j])
                if ratio > worst:
                    worst, worst_pair = ratio, [names[i], names[j]]
    return {"passed": not violations, "violations": violations,
            "worst_ratio": worst, "worst_pair": worst_pair}


@pytest.mark.parametrize("n,res,seed", [(2, 33, 0), (2, 17, 1), (3, 13, 2)])
@pytest.mark.parametrize("strict", [False, True])
def test_bounded_banach_block_matches_every_product(n, res, seed, strict,
                                                    monkeypatch):
    # the block measures only the products whose bound can matter; its
    # verdicts, violations (in order), worst ratio and worst pair, ties
    # included, are those of a norm of every product.  The battery holds
    # a zero field, whose products have no ratio, and copies of probes,
    # which tie every ratio of their originals.
    grid = build_grid(n, 1.0, res)
    pairs = build_pair_set(grid, seed=seed)
    battery = lemma_battery(n)
    copies = [Probe(p.name + "'", p.fn, p.deriv) for p in battery]
    battery = (copies[1::2] + [polynomial("zero", {(0,) * n: 0.0})]
               + battery + copies[::2])
    if strict:
        # a stricter verdict, which some products fail
        monkeypatch.setattr(verify, "banach_algebra_holds",
                            lambda nf, ng, nfg: nfg <= 0.5 * nf * ng)
    want = _banach_every_product(battery, grid, pairs, 0.5)
    measured = []
    measure = verify.weighted_norm_values

    def counted(values, *args, **kwargs):
        measured.append(np.ndim(values))
        return measure(values, *args, **kwargs)

    fields = np.stack([p.values(grid) for p in battery], axis=1)
    norms = weighted_norm_values(fields, 0.5, pairs)[2]
    monkeypatch.setattr(verify, "weighted_norm_values", counted)
    block = verify._banach_block(battery, pairs, 0.5, fields, norms)
    assert block["passed"] is want["passed"] is not strict
    assert block["violations"] == want["violations"]
    assert block["worst_ratio"].hex() == want["worst_ratio"].hex()
    assert block["worst_pair"] == want["worst_pair"]
    # the field norms come in measured; one call per measured product
    B = len(battery)
    assert set(measured) == {1}
    if not strict:
        assert len(measured) < B * (B + 1) // 2


def test_max_weighted_norm_scans_buckets_just_above_the_floor(monkeypatch):
    # Column 0 steps from 0 to s across x1 = 0: each straddling bucket's
    # bound is its exact max.  Column 1 puts a dipole, +1 and -1 on two
    # diagonal neighbours, into every full cube left of x1 = -0.3; their
    # buckets bound at about 1.2 times their values and fill the floor
    # scan.  The first dipole is 1e-3 stronger, so its bucket is scanned
    # first and the floor is column 1's norm.  s puts column 0's norm 3e-4
    # above it: the step's buckets beat the floor by less than a relative
    # slack of 1e-3 would let through.
    grid = build_grid(2, 1.0, 33)
    N = grid.node_count
    pairs = _complete_pair_set(grid, monkeypatch)
    alpha, x = 0.5, grid.nodes
    cube = _node_cube(pairs)
    dipoles = np.zeros(N)
    strength = 1.001
    for c in np.unique(cube):
        members = np.flatnonzero(cube == c)
        if members.size == 16 and np.all(x[members, 0] < -0.3):
            local = grid.lattice[members] - grid.lattice[members].min(axis=0)
            dipoles[members[np.all(local == 0, axis=1)]] = strength
            dipoles[members[np.all(local == 1, axis=1)]] = -strength
            strength = 1.0
    def norm(v):
        return float(_unit_scan(v, alpha, pairs)[2].max())

    floor = norm(dipoles[:, None])
    step = (x[:, 0] > 0).astype(float)
    s = floor * (1 + 3e-4) / norm(step[:, None])
    values = np.stack([s * step, dipoles], axis=1)
    want = norm(values)
    assert floor < want < floor * (1 + 1e-3)
    # the setting: the buckets bounding above the answer hold more than the
    # floor scan, and those bounding above the floor less than half the set
    c = 2.0**alpha
    sup = np.abs(values).max(axis=0)
    bound = (sup[:, None] + c * _quotient_bounds(
        np.ascontiguousarray(values.T), alpha, pairs)).max(axis=0)
    size = np.diff(pairs.buckets.indptr)
    assert size[bound > want].sum() > 4096
    assert size[bound > floor].sum() < pairs.size / 2
    assert max_weighted_norm(values, alpha, pairs).hex() == want.hex()


def test_weighted_norm_values_scans_buckets_just_above_a_column_floor(
        monkeypatch):
    # One column: a dipole, +1 and -1 on two diagonal neighbours, in every
    # full cube left of x1 = 0.1 (the first 1e-3 stronger), plus a step of
    # height t across x1 = 0.5.  A dipole's own bucket bounds at about 1.2
    # times its value, so those buckets fill the floor scan and the floor
    # is the first dipole's quotient.  t puts the step's quotient 3e-4
    # above it, in buckets whose bound is exact: they beat the column's
    # floor by less than a relative slack of 1e-3 would let through.
    grid = build_grid(2, 1.0, 33)
    N = grid.node_count
    pairs = _complete_pair_set(grid, monkeypatch)
    alpha, x = 0.5, grid.nodes
    cube = _node_cube(pairs)
    dipoles = np.zeros(N)
    strength = 1.001
    for c in np.unique(cube):
        members = np.flatnonzero(cube == c)
        if members.size == 16 and np.all(x[members, 0] < 0.1):
            local = grid.lattice[members] - grid.lattice[members].min(axis=0)
            dipoles[members[np.all(local == 0, axis=1)]] = strength
            dipoles[members[np.all(local == 1, axis=1)]] = -strength
            strength = 1.0

    def semi(v):
        return float(_unit_scan(v[:, None], alpha, pairs)[1][0])

    floor = semi(dipoles)
    step = (x[:, 0] > 0.5).astype(float)
    column = dipoles + floor * (1 + 3e-4) / semi(step) * step
    want = semi(column)
    assert floor < want < floor * (1 + 1e-3)
    # the setting: the buckets bounding above the answer hold more than the
    # floor scan, and those bounding above the floor a small share
    bound = _quotient_bounds(column[None, :], alpha, pairs)[0]
    size = np.diff(pairs.buckets.indptr)
    assert size[bound > want].sum() > 4096
    assert size[bound > floor].sum() < pairs.size / 10
    got = weighted_norm_values(column[:, None], alpha, pairs)[1]
    assert float(got[0]).hex() == want.hex()
