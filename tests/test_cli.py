"""Command-line interface: exit codes, config handling, artifacts."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jetsolve
import jetsolve.picard as picard_module
from jetsolve.cli import _build_solve_config, _report_text, main


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _solve_cfg(**overrides):
    cfg = {
        "system": "poisson",
        "n": 2,
        "res": 13,
        "R0": 1.0,
        "seed": 0,
        "gamma0": 5.0,
        "report": "report.json",
        "field": "field.csv",
    }
    cfg.update(overrides)
    return cfg


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_report_and_field(workdir):
    cfg = _solve_cfg(system={"name": "poisson", "params": {"const": 2.0}})
    rc = main(["solve", _write(workdir / "cfg.json", cfg)])
    assert rc == 0
    payload = json.loads((workdir / "report.json").read_text())
    assert payload["schema"] == 8
    assert payload["command"] == "solve"
    assert payload["result"]["status"] == "converged"
    assert payload["config"]["res"] == 13
    assert set(payload["metadata"]) == {"timestamp", "elapsed_seconds"}

    rows = list(csv.reader((workdir / "field.csv").open()))
    assert rows[0] == ["x1", "x2", "u1", "residual"]
    assert len(rows) - 1 == payload["grid"]["node_count"]


def test_solve_flag_overrides_file(workdir):
    cfg = _solve_cfg(system={"name": "poisson", "params": {"const": 2.0}})
    rc = main(["solve", _write(workdir / "cfg.json", cfg), "--res", "17"])
    assert rc == 0
    payload = json.loads((workdir / "report.json").read_text())
    assert payload["config"]["res"] == 17
    assert payload["grid"]["res"] == 17


def test_solve_with_jet_and_seed(workdir):
    cfg = _solve_cfg(
        system="minimal_surface",
        jet={"c0": [0.0], "c1": [[0.3, 0.0]]},
        harmonic_seed=[[[[1, 1], 0.05]]],
        res=17,
    )
    rc = main(["solve", _write(workdir / "cfg.json", cfg)])
    assert rc == 0
    payload = json.loads((workdir / "report.json").read_text())
    assert payload["result"]["status"] == "converged"
    assert payload["config"]["jet"]["c1"] == [[0.3, 0.0]]


def test_seed_is_the_library_polynomial(workdir):
    # the CLI hands each component's pairs to HarmonicPolynomial, so a
    # repeated exponent adds up there as it does in the library
    pairs = [[[1, 1], 1.0], [[1, 1], 2.0], [[2, 0], 0.5], [[0, 2], -0.5]]
    want = jetsolve.HarmonicPolynomial(pairs)
    assert want.terms[1] == ((1, 1), 3.0)
    assert _build_solve_config({"harmonic_seed": [pairs]}, 1,
                               2).harmonic_seed == [want]
    cfg = _solve_cfg(harmonic_seed=[pairs], res=9)
    assert main(["solve", _write(workdir / "cfg.json", cfg)]) == 0
    payload = json.loads((workdir / "report.json").read_text())
    assert payload["config"]["harmonic_seed"] == [want.to_jsonable()]


def test_solve_deterministic_reports(workdir):
    for sub in ("a", "b"):
        d = workdir / sub
        d.mkdir()
        cfg = _solve_cfg(system={"name": "poisson", "params": {"const": 2.0}})
        rc = main(["solve", _write(d / "cfg.json", cfg),
                   "--report", str(d / "report.json"),
                   "--field", str(d / "field.csv")])
        assert rc == 0
    pa = json.loads((workdir / "a" / "report.json").read_text())
    pb = json.loads((workdir / "b" / "report.json").read_text())
    pa.pop("metadata")
    pb.pop("metadata")
    # the echoed output paths differ by construction; everything else is fixed
    pa["config"].pop("report"), pb["config"].pop("report")
    pa["config"].pop("field"), pb["config"].pop("field")
    assert json.dumps(pa, sort_keys=True) == json.dumps(pb, sort_keys=True)
    fa = (workdir / "a" / "field.csv").read_bytes()
    fb = (workdir / "b" / "field.csv").read_bytes()
    assert fa == fb


def test_solve_report_independent_of_thread_count(workdir):
    # one child process per BLAS/OpenMP thread count; the reports must match
    cfg = _solve_cfg(system="minimal_surface",
                     jet={"c0": [0.0], "c1": [[0.3, 0.0]]}, res=17)
    path = _write(workdir / "cfg.json", cfg)
    src = str(Path(jetsolve.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-m", "jetsolve.cli", "solve", path,
             "--report", f"report{threads}.json",
             "--field", f"field{threads}.csv"],
            env=env, cwd=workdir, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        payload = json.loads((workdir / f"report{threads}.json").read_text())
        payload.pop("metadata")
        payload["config"].pop("report"), payload["config"].pop("field")
        reports.append(json.dumps(payload, sort_keys=True))
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# config errors -> exit 3


@pytest.mark.parametrize("mutate,needle", [
    (lambda c: c.update(alpha=1.5), "alpha"),
    (lambda c: c.update(system="not_real"), "system"),
    (lambda c: c.update(surprise=1), "surprise"),
    (lambda c: c.update(n=4), "n"),
    (lambda c: c.update(res=10), "res"),
    (lambda c: c.update(jet={"c0": [0.0], "c1": [[1.0, 0.0, 0.0]]}), "jet"),
    (lambda c: c.update(threads=2), "threads"),
    (lambda c: c.update(c_samples=512), "c_samples"),
    (lambda c: c.update(pair_cap=200_000), "pair_cap"),
    (lambda c: c.update(contraction_threshold=0.9), "contraction_threshold"),
    (lambda c: c.update(gamma0_floor=0.5), "gamma0_floor"),
    (lambda c: c.update(R0=float("nan")), "R0"),
    (lambda c: c.update(R0=float("inf")), "R0"),
    (lambda c: c.update(tol=float("nan")), "tol"),
    (lambda c: c.update(gamma0=float("nan")), "gamma0"),
    (lambda c: c.update(max_iter=float("inf")), "max_iter"),
    pytest.param(lambda c: c.update(seed=-1), "seed", id="seed_negative"),
    # integer fields take integral numbers only, never a bool or a string
    pytest.param(lambda c: c.update(res=21.5), "res", id="res_fractional"),
    pytest.param(lambda c: c.update(max_iter=True), "max_iter",
                 id="max_iter_bool"),
    # nor do the real fields take a bool, which float() reads as 1.0
    pytest.param(lambda c: c.update(R0=True), "R0", id="R0_bool"),
    pytest.param(lambda c: c.update(R_min=True), "R_min", id="R_min_bool"),
    pytest.param(lambda c: c.update(tol=True), "tol", id="tol_bool"),
    pytest.param(lambda c: c.update(gamma0=True), "gamma0",
                 id="gamma0_bool"),
    pytest.param(lambda c: c.update(alpha=False), "alpha", id="alpha_bool"),
    # a constant of the method now, so an unknown field whatever its value
    pytest.param(lambda c: c.update(max_gamma_doublings="3"),
                 "max_gamma_doublings", id="max_gamma_doublings_string"),
    pytest.param(lambda c: c.update(seed=1.5), "seed", id="seed_fractional"),
    # system parameters get the same number checks as solver keys
    pytest.param(lambda c: c.update(system={
        "name": "harmonic_map",
        "params": {"target": "sphere", "target_dim": 2.5}}),
        "target_dim", id="target_dim_fractional"),
    pytest.param(lambda c: c.update(system={
        "name": "poisson", "params": {"m": 1.7}}), "'m'", id="m_fractional"),
    pytest.param(lambda c: c.update(system={
        "name": "poisson", "params": {"m": 0}}), "'m'", id="m_zero"),
    pytest.param(lambda c: c.update(system={
        "name": "minimal_surface", "params": {"q_bound": "nan"}}),
        "q_bound", id="q_bound_nan"),
    # nor does a real system parameter take a bool
    pytest.param(lambda c: c.update(system={
        "name": "minimal_surface", "params": {"q_bound": True}}),
        "q_bound", id="q_bound_bool"),
    pytest.param(lambda c: c.update(system={
        "name": "prescribed_mean_curvature",
        "params": {"mean_curvature": False}}),
        "mean_curvature", id="mean_curvature_bool"),
    # a seed term's exponents are integral numbers, never truncated
    pytest.param(lambda c: c.update(harmonic_seed=[[[[1.5, 1], 1.0]]]),
                 "harmonic_seed", id="seed_exponent_fractional"),
    pytest.param(lambda c: c.update(harmonic_seed=[[[[True, 1], 1.0]]]),
                 "harmonic_seed", id="seed_exponent_bool"),
    # a real field takes a number, not a string that float() would read
    pytest.param(lambda c: c.update(R0="1.0"), "R0", id="R0_string"),
    pytest.param(lambda c: c.update(system={
        "name": "minimal_surface", "params": {"q_bound": "2.5"}}),
        "q_bound", id="q_bound_string"),
    # nor does an array of real numbers take a bool or a string entry
    pytest.param(lambda c: c.update(jet={"c0": [True], "c1": [[0.3, 0.0]]}),
                 "jet.c0", id="jet_c0_bool"),
    pytest.param(lambda c: c.update(jet={"c0": [0.0],
                                         "c1": [["0.3", 0.0]]}),
                 "jet.c1", id="jet_c1_string"),
    pytest.param(lambda c: c.update(jet={"c0": [0.0], "c1": [[0.3, False]]}),
                 "jet.c1", id="jet_c1_bool"),
    pytest.param(lambda c: c.update(system={
        "name": "poisson", "params": {"linear": [[True, "0.5"]]}}),
        "'linear'", id="linear_bool_and_string"),
    pytest.param(lambda c: c.update(system={
        "name": "poisson", "params": {"const": True}}),
        "'const'", id="const_bool"),
    pytest.param(lambda c: c.update(system={
        "name": "poisson", "params": {"const": ["1.0"]}}),
        "'const'", id="const_string"),
    # a seed fits the system: one component per m, exponents of length n
    pytest.param(lambda c: c.update(harmonic_seed=[[[[1, 1], 0.1]]] * 2),
                 "harmonic_seed", id="seed_component_count"),
    pytest.param(lambda c: c.update(harmonic_seed=[[[[1, 1, 0], 0.1]]]),
                 "harmonic_seed", id="seed_dimension"),
    # an R0 whose squared grid spacing (2 R0 / (res - 1))**2 overflows
    pytest.param(lambda c: c.update(R0=1e156, res=9), "R0",
                 id="R0_spacing_overflows"),
    pytest.param(lambda c: c.update(R0=1e156, res=9, n=3, system={
        "name": "harmonic_map", "params": {"target": "sphere"}}), "R0",
        id="R0_spacing_overflows_3d"),
    # an R0 or a radius floor whose squared grid spacing underflows
    pytest.param(lambda c: c.update(R0=1e-200, res=9), "R0",
                 id="R0_spacing_underflows"),
    pytest.param(lambda c: c.update(R0=1e-150, R_min=1e-200, res=9),
                 "R_min", id="R_min_spacing_underflows"),
    # a system name is a string
    pytest.param(lambda c: c.update(system={"name": ["poisson"]}),
                 "system.name", id="system_name_list"),
])
def test_solve_config_errors(workdir, capsys, mutate, needle):
    cfg = _solve_cfg()
    mutate(cfg)
    rc = main(["solve", _write(workdir / "cfg.json", cfg)])
    assert rc == 3
    err = capsys.readouterr().err
    assert needle in err


@pytest.mark.parametrize("argv", [
    ["solve", "--bogus", "1"],
    ["solve", "--res", "abc"],
    ["not-a-command"],
])
def test_usage_errors_exit_three(workdir, capsys, argv):
    assert main(argv) == 3
    assert "config error" in capsys.readouterr().err


def test_readme_solve_config_runs(workdir):
    # the solve config shown in the README is a working config
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A solve config", 1)[1]
    block = block.split("```json\n", 1)[1].split("```", 1)[0]
    path = workdir / "cfg.json"
    path.write_text(block)
    assert main(["solve", str(path), "--res", "9"]) == 0
    payload = json.loads((workdir / "report.json").read_text())
    assert payload["result"]["status"] == "converged"


def test_solve_requires_n(workdir):
    cfg = _solve_cfg()
    del cfg["n"]
    assert main(["solve", _write(workdir / "cfg.json", cfg)]) == 3


def test_missing_config_file(workdir):
    assert main(["solve", "does_not_exist.json"]) == 3


def test_malformed_json(workdir):
    p = workdir / "broken.json"
    p.write_text("{not json")
    assert main(["solve", str(p)]) == 3


def test_jet_outside_chart_is_config_error(workdir):
    cfg = _solve_cfg(
        system={"name": "harmonic_map", "params": {"target": "hyperbolic"}},
        jet={"c0": [2.0, 0.0], "c1": [[0.0, 0.0], [0.0, 0.0]]},
    )
    assert main(["solve", _write(workdir / "cfg.json", cfg)]) == 3


# ---------------------------------------------------------------------------
# solve failures -> exit 2 with a report


def test_unreachable_floor_exits_two(workdir, monkeypatch):
    monkeypatch.setattr(picard_module, "MAX_GAMMA_DOUBLINGS", 1)
    cfg = _solve_cfg(
        system={"name": "poisson", "params": {"const": 5.0}},
        gamma0=1e-6, R_min=0.5, max_iter=5, res=9,
    )
    rc = main(["solve", _write(workdir / "cfg.json", cfg)])
    assert rc == 2
    payload = json.loads((workdir / "report.json").read_text())
    assert "error" in payload
    assert payload["result"]["status"].startswith("failed")
    # every escape records the norm that left the ball
    escaped = [a for a in payload["result"]["attempts"]
               if a["outcome"] == "escaped"]
    assert escaped
    assert all(a["escape_norm"] > a["gamma_start"] for a in escaped)


def test_oracle_failure_exits_four_with_history(workdir, capsys):
    # on the R0 = 2 disk the jet's affine map c0 + c1 x leaves the
    # hyperbolic chart, so the first sweep's oracle call fails: the report
    # holds the failed attempt, like any other failed solve's
    cfg = _solve_cfg(
        system={"name": "harmonic_map", "params": {"target": "hyperbolic"}},
        jet={"c0": [0.9, 0.0], "c1": [[0.6, 0.0], [0.0, 0.6]]},
        R0=2.0, res=9, gamma0=None)
    assert main(["solve", _write(workdir / "cfg.json", cfg)]) == 4
    assert capsys.readouterr().err.startswith("oracle failure:")
    payload = json.loads((workdir / "report.json").read_text())
    assert payload["schema"] == 8
    assert "outside the hyperbolic chart" in payload["error"]
    result = payload["result"]
    assert result["status"] == "failed:oracle_failure"
    assert [(a["R"], a["outcome"]) for a in result["attempts"]] == [
        (2.0, "oracle_failure")]
    assert not (workdir / "field.csv").exists()


def test_oracle_failure_before_any_attempt_exits_four_without_result(
        workdir, capsys, monkeypatch):
    # a registry system reaches this only at the chart's edge: a c0 whose
    # norm rounds below the chart radius in the jet shift, but whose
    # squared norm rounds to the radius squared in psi(0)'s chart check
    def breaks(system, config):
        raise picard_module.OracleFailure("oracle psi raised ValueError()",
                                          node=np.zeros(2))

    monkeypatch.setattr(picard_module, "choose_norm_radius", breaks)
    assert main(["solve", _write(workdir / "cfg.json", _solve_cfg())]) == 4
    assert capsys.readouterr().err.startswith("oracle failure:")
    payload = json.loads((workdir / "report.json").read_text())
    assert payload["result"] is None
    assert payload["error"].endswith("at node [0.0, 0.0]")
    assert not (workdir / "field.csv").exists()


# ---------------------------------------------------------------------------
# verify-lemmas


def test_verify_lemmas_passes(workdir, capsys):
    rc = main(["verify-lemmas", "--n", "2", "--res", "13",
               "--report", "lemmas.json"])
    assert rc == 0
    payload = json.loads((workdir / "lemmas.json").read_text())
    assert payload["result"]["all_passed"] is True
    assert payload["result"]["battery_size"] >= 20
    # the same payload is printed to stdout
    stdout = json.loads(capsys.readouterr().out)
    assert stdout["result"]["all_passed"] is True


def test_verify_lemmas_validates_args(workdir, capsys):
    assert main(["verify-lemmas", "--alpha", "2.0"]) == 3
    assert main(["verify-lemmas", "--res", "8"]) == 3
    assert main(["verify-lemmas", "--R", "nan"]) == 3
    assert main(["verify-lemmas", "--R", "inf"]) == 3
    # complete pair sets (res 9) never read the seed, sampled ones (res 33) do
    for res in ("9", "33"):
        assert main(["verify-lemmas", "--res", res, "--seed", "-1"]) == 3
    # a finite R at which a battery product overflows (past R of about 355)
    capsys.readouterr()
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["verify-lemmas", "--R", "400", "--res", "9"]) == 3
    assert "field 'R'" in capsys.readouterr().err
    # an R at which the comparison ratios' denominators underflow to 0 (the
    # res-17 Laplacian block divides by an h**2 that does too)
    with np.errstate(all="ignore"):
        assert main(["verify-lemmas", "--R", "1e-200", "--res", "9"]) == 3
    assert "field 'R'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# kobayashi


def test_kobayashi_flat_target(workdir):
    cfg = {"target": "euclidean", "p": [0.0, 0.0], "X": [1.0, 0.0],
           "report": "kob.json"}
    rc = main(["kobayashi", _write(workdir / "cfg.json", cfg)])
    assert rc == 0
    payload = json.loads((workdir / "kob.json").read_text())
    assert payload["result"]["upper_bound"] == 0.0
    assert payload["result"]["certificate"] == "linear_map"


def test_kobayashi_hyperbolic(workdir):
    cfg = {"target": "hyperbolic", "p": [0.0, 0.0], "X": [0.5, 0.0],
           "solver": {"res": 21, "gamma0": 1.0, "seed": 0},
           "report": "kob.json"}
    rc = main(["kobayashi", _write(workdir / "cfg.json", cfg)])
    assert rc == 0
    payload = json.loads((workdir / "kob.json").read_text())
    result = payload["result"]
    assert result["upper_bound"] == pytest.approx(1.0 / result["r_best"])
    assert result["inconclusive"] is False


def test_kobayashi_inconclusive_exits_two(workdir):
    cfg = {"target": "hyperbolic", "p": [0.0, 0.0], "X": [0.9, 0.0],
           "r_start": 8.0, "max_steps": 2,
           "solver": {"res": 21, "gamma0": 1.0, "seed": 0},
           "report": "kob.json"}
    rc = main(["kobayashi", _write(workdir / "cfg.json", cfg)])
    assert rc == 2
    payload = json.loads((workdir / "kob.json").read_text())
    assert payload["result"]["inconclusive"] is True


def test_kobayashi_rejects_non_finite_schedule(workdir, capsys):
    cfg = {"target": "hyperbolic", "p": [0.0, 0.0], "X": [0.5, 0.0],
           "max_steps": 2, "solver": {"res": 7, "gamma0": 1.0}}
    path = _write(workdir / "cfg.json", cfg)
    for flag, value in [("r_start", "nan"), ("growth", "inf")]:
        assert main(["kobayashi", path, f"--{flag}", value]) == 3
        assert flag in capsys.readouterr().err


@pytest.mark.parametrize("update,needle", [
    ({"solver": {"res": 7, "gamma0": 1.0, "seed": -1}}, "seed"),
    ({"max_steps": 2.5}, "max_steps"),
    ({"target": {"name": "hyperbolic", "dim": "two"}}, "dim"),
    ({"target": {"name": "hyperbolic", "dim": -1}}, "dim"),
    # constants of the method now, so unknown fields
    ({"conformality_tol": 1e-8}, "conformality_tol"),
    ({"solver": {"res": 7, "gamma0": 1.0, "max_gamma_doublings": 6}},
     "max_gamma_doublings"),
    # the search needs X and an orthogonal partner
    ({"target": {"name": "hyperbolic", "dim": 1}, "p": [0.0], "X": [0.4]},
     "dimension"),
    ({"target": {"name": "euclidean", "dim": 1}, "p": [0.0], "X": [0.4]},
     "dimension"),
    # every radius starts from zero, so a seed would be ignored
    ({"solver": {"res": 7, "gamma0": 1.0,
                 "harmonic_seed": [[[[2, 0], 5.0]], [[[0, 2], 5.0]]]}},
     "harmonic_seed"),
    # a bool is neither an integral nor a real schedule value
    ({"max_steps": True}, "max_steps"),
    ({"r_start": True}, "r_start"),
    ({"growth": True}, "growth"),
    # nor is one an entry of the point or the vector
    ({"p": [0.0, False]}, "p:"),
    ({"X": ["0.5", 0.0]}, "X:"),
    # a schedule whose last radius overflows
    ({"max_steps": 2000}, "growth**(max_steps - 1)"),
    ({"growth": 1e200, "max_steps": 3}, "growth**(max_steps - 1)"),
    # a finite schedule whose radii a grid cannot hold
    ({"r_start": 1e156}, "r_start, growth, max_steps"),
    ({"r_start": 1e-200}, "r_start, growth, max_steps"),
    # a target name is a string
    ({"target": {"name": ["hyperbolic"]}}, "target.name"),
])
def test_kobayashi_config_errors(workdir, capsys, update, needle):
    cfg = {"target": "hyperbolic", "p": [0.0, 0.0], "X": [0.5, 0.0],
           "max_steps": 2, "solver": {"res": 7, "gamma0": 1.0}, **update}
    assert main(["kobayashi", _write(workdir / "cfg.json", cfg)]) == 3
    assert needle in capsys.readouterr().err


def test_kobayashi_rejects_base_point_outside_chart(workdir):
    cfg = {"target": "hyperbolic", "p": [2.0, 0.0], "X": [0.5, 0.0]}
    assert main(["kobayashi", _write(workdir / "cfg.json", cfg)]) == 3


# ---------------------------------------------------------------------------
# report serialization


@pytest.mark.parametrize("argv", [
    ["solve", "--system", "poisson", "--n", "2", "--res", "9",
     "--report", "missing/r.json"],
    ["solve", "--system", "poisson", "--n", "2", "--res", "9",
     "--field", "missing/f.csv"],
    ["verify-lemmas", "--res", "9", "--report", "missing/r.json"],
])
def test_unwritable_output_is_config_error(workdir, capsys, argv):
    assert main(argv) == 3
    assert f"cannot write '{argv[-1]}'" in capsys.readouterr().err


def test_payload_keys(workdir, monkeypatch):
    # every report.json: the schema, the command, the echoed config, the
    # command's fields and the metadata
    common = {"schema", "command", "config", "metadata"}
    assert main(["solve", _write(workdir / "cfg.json", _solve_cfg()),
                 "--report", "ok.json"]) == 0
    monkeypatch.setattr(picard_module, "MAX_GAMMA_DOUBLINGS", 1)
    assert main(["solve", _write(workdir / "cfg.json", _solve_cfg(
        system={"name": "poisson", "params": {"const": 5.0}},
        gamma0=1e-6, R_min=0.5, max_iter=5, res=9)),
        "--report", "failed.json"]) == 2
    kob = {"target": "hyperbolic", "p": [0.0, 0.0], "X": [0.4, 0.0],
           "max_steps": 2, "solver": {"res": 7}}
    assert main(["kobayashi", _write(workdir / "kcfg.json", kob),
                 "--report", "kob.json"]) == 0
    assert main(["verify-lemmas", "--res", "9",
                 "--report", "lemmas.json"]) == 0

    def broken(system, state):
        raise picard_module.OracleFailure("broken oracle")

    monkeypatch.setattr(picard_module, "source_term", broken)
    assert main(["solve", _write(workdir / "cfg.json", _solve_cfg()),
                 "--report", "oracle.json"]) == 4
    for path, fields in [("ok.json", {"grid", "result"}),
                         ("failed.json", {"error", "result"}),
                         ("oracle.json", {"error", "result"}),
                         ("kob.json", {"result"}),
                         ("lemmas.json", {"result"})]:
        payload = json.loads((workdir / path).read_text())
        assert set(payload) == common | fields, path
    # an oracle failure writes the partial history like any failed solve
    result = json.loads((workdir / "oracle.json").read_text())["result"]
    assert result["status"] == "failed:oracle_failure"
    assert result["attempts"][-1]["outcome"] == "oracle_failure"


def test_report_text_is_strict_json():
    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    text = _report_text({"a": float("-inf"), "b": np.float64("nan"),
                         "c": [np.inf, 1.5]})
    assert json.loads(text, parse_constant=reject) == {
        "a": "-inf", "b": "nan", "c": ["inf", 1.5]}


# ---------------------------------------------------------------------------
# console script


def test_console_script_runs():
    out = subprocess.run([sys.executable, "-m", "jetsolve.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "solve" in out.stdout
