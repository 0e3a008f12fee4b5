"""Acceptance gate: one test per shipped guarantee, with pinned tolerances.

Each test prints a single summary line (visible under ``pytest -s``) and
enforces both the numeric tolerance and a wall-clock budget.
"""

import json
import time

import numpy as np
import pytest

from jetsolve import (
    HarmonicPolynomial,
    JetSpec,
    KobayashiQuery,
    SolveConfig,
    build_grid,
    build_pair_set,
    check_potential_norm_bound,
    constant_probe,
    estimate,
    euclidean_target,
    harmonic_map_system,
    hyperbolic_disk_target,
    laplacian_consistency,
    minimal_surface_system,
    newtonian_potential,
    poisson_system,
    potential_probes,
    potential_hessian,
    run_lemma_suite,
    solve_system,
    sphere_stereographic_target,
    uniform_ball_potential,
    weighted_norm_values,
)
from jetsolve.kobayashi import conformality_defect, is_conformal_jet
from jetsolve.probes import coordinate_probe
from jetsolve.cli import main as cli_main


def _finish(num, name, budget, started, ok, detail):
    elapsed = time.monotonic() - started
    line = (f"criterion {num:02d} [{name}] "
            f"{'PASS' if ok and elapsed < budget else 'FAIL'} "
            f"({detail}; {elapsed:.2f}s of {budget:.0f}s budget)")
    print(line)
    assert ok, line
    assert elapsed < budget, line


# ---------------------------------------------------------------------------


def test_criterion_01_norm_exactness():
    t0 = time.monotonic()
    worst = 0.0
    for n in (2, 3):
        for R in (0.1, 0.5, 1.0, 2.0):
            grid = build_grid(n, R, 9)
            pairs = build_pair_set(grid, seed=0)
            for alpha in (0.25, 0.5, 0.75):
                for d in range(n):
                    f = coordinate_probe(n, d).values(grid)
                    got = weighted_norm_values(f, alpha, pairs)[2]
                    worst = max(worst, abs(got - 3.0 * R))
    _finish(1, "coordinate norms equal 3R", 1.0, t0,
            worst <= 1e-12, f"worst |error| = {worst:.2e}, tol 1e-12")


def test_criterion_02_lemma_suite():
    t0 = time.monotonic()
    suite = run_lemma_suite(n=2, R=1.0, res=17, alpha=0.5, seed=0)
    violations = sum(len(b.get("violations", [])) for b in suite["lemmas"])
    ok = (suite["all_passed"] and suite["battery_size"] >= 20
          and violations == 0)
    _finish(2, "norm lemma battery", 10.0, t0, ok,
            f"battery {suite['battery_size']}, violations {violations}")


def test_criterion_03_potential_closed_form():
    t0 = time.monotonic()
    errs = {}
    for res in (17, 25):
        grid = build_grid(3, 1.0, res)
        pf = newtonian_potential(constant_probe(3).values(grid), grid)
        want = np.array([uniform_ball_potential(3, 1.0, x)
                         for x in grid.nodes])
        errs[res] = np.abs(pf.values - want).max() / np.abs(want).max()
    ok = errs[17] <= 0.03 and errs[25] < errs[17]
    _finish(3, "constant-source closed form", 60.0, t0, ok,
            f"rel sup err {errs[17]:.4%} at res 17 (tol 3%), "
            f"{errs[25]:.4%} at res 25")


def test_criterion_04_laplacian_two_routes():
    t0 = time.monotonic()
    grid = build_grid(2, 1.0, 21)
    probes = {
        "one": lambda p: np.ones(p.shape[0]),
        "x1": lambda p: p[:, 0],
        "sin_x1": lambda p: np.sin(p[:, 0]),
    }
    worst = 0.0
    for fn in probes.values():
        f = fn(grid.nodes)
        rep = laplacian_consistency(potential_hessian(f, grid), f)
        worst = max(worst, rep["max_relative_gap"])
    _finish(4, "kernel-trace vs stencil Laplacian", 30.0, t0,
            worst <= 0.05, f"worst relative gap {worst:.4%}, tol 5%")


def test_criterion_05_ratio_independent_of_radius():
    t0 = time.monotonic()
    ratios = []
    for R in (1.0, 0.5, 0.25, 0.125):
        pairs = build_pair_set(build_grid(2, R, 17), seed=0)
        rep = check_potential_norm_bound(potential_probes(2), 0.5, pairs)
        ratios.append(max(rep.values()))
    spread = max(ratios) / min(ratios)
    _finish(5, "potential norm ratio stability", 120.0, t0,
            spread < 3.0,
            f"ratios {[round(r, 3) for r in ratios]}, spread x{spread:.2f}")


def test_criterion_06_exact_quadratic_fixed_point():
    t0 = time.monotonic()
    c = 3.0
    report = solve_system(poisson_system(3, const=c), JetSpec.zero(1, 3),
                          SolveConfig(R0=1.0, res=17, seed=0))
    grid = report.grid
    want = c * np.einsum("ij,ij->i", grid.nodes, grid.nodes) / 6.0
    got = report.solution[:, 0]
    rel = np.abs(got - want).max() / np.abs(want).max()
    ok = (report.status == "converged" and report.iterations <= 2
          and rel <= 0.02 and report.jet_value <= 1e-10
          and report.jet_gradient <= 1e-10)
    _finish(6, "constant source solves in two sweeps", 30.0, t0, ok,
            f"iters {report.iterations}, rel err {rel:.4%}, "
            f"jet ({report.jet_value:.1e}, {report.jet_gradient:.1e})")


def test_criterion_07_minimal_surface_jet():
    t0 = time.monotonic()
    system = minimal_surface_system(2)

    flat = solve_system(system, JetSpec.zero(1, 2),
                        SolveConfig(R0=1.0, res=21, seed=0))
    flat_exact = (flat.status == "converged" and flat.iterations == 1
                  and float(np.abs(flat.solution).max()) == 0.0)

    jet = JetSpec(np.zeros(1), np.array([[0.3, 0.0]]))
    cfg = SolveConfig(R0=1.0, res=41, seed=0)
    report = solve_system(system, jet, cfg)
    residual_ok = report.residual <= 1e-3 * (1.0 + report.source_sup)

    u = report.reconstructed[:, 0]
    grid = report.grid
    o = grid.origin_index
    from jetsolve import fd_values

    slope_grid = np.array([fd_values(grid, u, (1, 0))[o],
                           fd_values(grid, u, (0, 1))[o]])
    # grid nodes live in whitened coordinates y = P x, so the slope in the
    # original chart is (d u / d y) P
    slope = slope_grid @ report.transform
    jet_ok = abs(u[o]) <= 1e-12 and np.abs(slope - [0.3, 0.0]).max() <= 1e-9

    # the tilted plane is itself the fixed point, reached in one sweep, so
    # the contraction rate is measured on a seeded twin of the same solve
    ratio = report.ratio_geomean
    if ratio is None:
        seeded = solve_system(
            system, jet,
            SolveConfig(R0=1.0, res=41, seed=0, harmonic_seed=[
                HarmonicPolynomial({(2, 0): 0.05, (0, 2): -0.05})]))
        ratio = seeded.ratio_geomean
    ok = (flat_exact and report.status == "converged" and residual_ok
          and jet_ok and ratio is not None and ratio < 0.6)
    _finish(7, "minimal surface with tilted jet", 120.0, t0, ok,
            f"flat 1-sweep exact {flat_exact}, residual {report.residual:.2e}"
            f" vs {1e-3 * (1 + report.source_sup):.2e}, contraction {ratio:.3f}")


def test_criterion_08_sphere_harmonic_maps():
    t0 = time.monotonic()
    system = harmonic_map_system(2, sphere_stereographic_target(2))

    const = solve_system(system,
                         JetSpec(np.array([0.3, -0.1]), np.zeros((2, 2))),
                         SolveConfig(R0=1.0, res=21, seed=0))
    const_exact = (const.status == "converged" and const.iterations == 1
                   and float(np.abs(const.solution).max()) == 0.0
                   and const.in_chart)

    jet = JetSpec(np.zeros(2), np.array([[0.2, 0.0], [0.0, 0.0]]))
    report = solve_system(system, jet, SolveConfig(R0=1.0, res=41, seed=0))
    ok = (const_exact and report.status == "converged"
          and report.residual <= 1e-3 and report.in_chart)
    _finish(8, "sphere-valued harmonic maps", 120.0, t0, ok,
            f"constant-map exact {const_exact}, residual {report.residual:.2e}"
            f" (tol 1e-3), in chart {report.in_chart}")


def test_criterion_09_radius_shrinking():
    t0 = time.monotonic()
    seed = [HarmonicPolynomial({(2, 0): 0.6, (0, 2): -0.6})]
    cfg = SolveConfig(R0=3.0, res=33, seed=0, gamma0=40.0, max_iter=60,
                      harmonic_seed=seed)
    report = solve_system(minimal_surface_system(2, q_bound=2.5),
                          JetSpec.zero(1, 2), cfg)
    devs = [a.deviation_sup for a in report.attempts]
    decreasing = all(b < a for a, b in zip(devs, devs[1:]))
    ok = (report.status == "converged" and report.final_R < cfg.R0
          and len(report.attempts) >= 2
          and report.attempts[0].outcome != "converged"
          and decreasing)
    _finish(9, "large-radius run halves and recovers", 180.0, t0, ok,
            f"radii {[a.R for a in report.attempts]}, deviations "
            f"{[round(d, 6) for d in devs]}, strictly decreasing {decreasing}")


def test_criterion_10_kobayashi_searches():
    t0 = time.monotonic()
    hyp = hyperbolic_disk_target(2)
    fast = SolveConfig(res=21, gamma0=1.0, seed=0)

    zero = estimate(KobayashiQuery(hyp, np.zeros(2), np.zeros(2)))
    zero_ok = zero.upper_bound == 0.0 and zero.certificate == "zero_vector"

    flat = estimate(KobayashiQuery(euclidean_target(2), np.zeros(2),
                                   np.array([0.7, 0.0])))
    flat_ok = flat.upper_bound == 0.0 and flat.certificate == "linear_map"

    X = np.array([0.5, 0.0])
    geodesic_jet = np.column_stack([X, X])
    rejected = (not is_conformal_jet(hyp, np.zeros(2), geodesic_jet)
                and conformality_defect(hyp, np.zeros(2), geodesic_jet) > 0)

    est = estimate(KobayashiQuery(hyp, np.zeros(2), X), solve_config=fast)
    flags = [o.success for o in est.outcomes]
    monotone = flags == sorted(flags, reverse=True)
    curved_ok = (not est.inconclusive and est.upper_bound is not None
                 and np.isfinite(est.upper_bound) and monotone)

    ok = zero_ok and flat_ok and rejected and curved_ok
    _finish(10, "Kobayashi-type searches", 180.0, t0, ok,
            f"zero {zero_ok}, flat {flat_ok}, non-conformal rejected "
            f"{rejected}, curved bound {est.upper_bound and round(est.upper_bound, 4)}"
            f" monotone {monotone}")


def test_criterion_11_deterministic_reports(tmp_path, monkeypatch):
    t0 = time.monotonic()
    cfg = {
        "system": "minimal_surface",
        "n": 2,
        "jet": {"c0": [0.0], "c1": [[0.3, 0.0]]},
        "res": 41,
        "R0": 1.0,
        "seed": 0,
        "report": "report.json",
        "field": "field.csv",
    }
    payloads, fields = [], []
    for sub in ("first", "second"):
        d = tmp_path / sub
        d.mkdir()
        (d / "cfg.json").write_text(json.dumps(cfg))
        monkeypatch.chdir(d)
        assert cli_main(["solve", "cfg.json"]) == 0
        payloads.append(json.loads((d / "report.json").read_text()))
        fields.append((d / "field.csv").read_bytes())
    for p in payloads:
        p.pop("metadata")
    same_report = (json.dumps(payloads[0], sort_keys=True)
                   == json.dumps(payloads[1], sort_keys=True))
    same_field = fields[0] == fields[1]
    _finish(11, "byte-stable reports", 60.0, t0, same_report and same_field,
            f"report identical modulo metadata {same_report}, "
            f"field bytes identical {same_field}")
