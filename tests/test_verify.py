"""The executable lemma suite: every block passes on the stock battery."""

import json
import sys

import numpy as np
import pytest

from jetsolve import polynomial, run_lemma_suite
from jetsolve import holder, potential, verify
from jetsolve.cli import EXIT_ORACLE_FAILURE, main
from jetsolve.probes import Probe, lemma_battery


@pytest.fixture(scope="module")
def suite():
    return run_lemma_suite(n=2, R=1.0, res=13, alpha=0.5, seed=0)


def test_suite_passes(suite):
    assert suite["all_passed"] is True


def test_battery_is_large_enough(suite):
    assert suite["battery_size"] >= 20


def test_every_block_reports_zero_violations(suite):
    names = set()
    for block in suite["lemmas"]:
        names.add(block["name"])
        assert block["passed"] is True, block["name"]
        assert block.get("violations", []) == [], block["name"]
    assert {"taylor_remainder", "banach_algebra", "norm_comparison"} <= names


def test_blocks_carry_worst_case_diagnostics(suite):
    for block in suite["lemmas"]:
        if "worst_ratio" in block:
            assert block["worst_ratio"] <= 1.0 + 1e-9


@pytest.mark.parametrize("res,drawn", [(13, 113 * 112 // 2), (33, 200_000)])
def test_report_gives_drawn_and_distinct_pair_counts(res, drawn):
    # pairs is the number drawn, as the README defines the sample;
    # distinct_pairs the number scanned, fewer once a sample drops repeats
    grid = run_lemma_suite(n=2, R=1.0, res=res, alpha=0.5, seed=0)["grid"]
    assert grid["pairs"] == drawn
    if res == 33:
        assert grid["distinct_pairs"] == 148_469
    else:
        assert grid["distinct_pairs"] == drawn


def test_suite_3d_smoke():
    suite = run_lemma_suite(n=3, R=0.5, res=9, alpha=0.5, seed=0)
    assert suite["all_passed"] is True


# ---------------------------------------------------------------------------
# the violation path


def _wrong_cubic() -> Probe:
    """x1^3 whose derivative oracle reports 0 for every |beta| = 2."""
    cubic = polynomial("x1^3_wrong", {(3, 0): 1.0})

    def deriv(beta, pts):
        if sum(beta) == 2:
            return np.zeros(pts.shape[0])
        return cubic.deriv(beta, pts)

    return Probe(cubic.name, cubic.fn, deriv)


@pytest.fixture
def wrong_battery(monkeypatch):
    monkeypatch.setattr(verify, "lemma_battery",
                        lambda n: lemma_battery(n) + [_wrong_cubic()])


def test_wrong_second_derivatives_are_violations(wrong_battery):
    suite = run_lemma_suite(n=2, R=1.0, res=9, alpha=0.5, seed=0)
    blocks = {b["name"]: b for b in suite["lemmas"]}
    for name in ("taylor_remainder", "norm_comparison"):
        assert blocks[name]["violations"] == ["x1^3_wrong"], name
        assert blocks[name]["passed"] is False, name
    assert blocks["banach_algebra"]["passed"] is True
    assert suite["all_passed"] is False


def test_verify_lemmas_exits_four_on_violation(wrong_battery, tmp_path,
                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["verify-lemmas", "--n", "2", "--res", "9",
               "--report", "lemmas.json"])
    assert rc == EXIT_ORACLE_FAILURE == 4
    payload = json.loads((tmp_path / "lemmas.json").read_text())
    assert payload["result"]["all_passed"] is False


def _reject_constant(token):
    raise ValueError(f"not strict JSON: {token}")


def test_verify_lemmas_report_is_strict_json(wrong_battery, tmp_path,
                                             monkeypatch, capsys):
    # the wrong probe's Hessian seminorms vanish while its remainder does
    # not, so its Taylor ratio is infinite
    monkeypatch.chdir(tmp_path)
    main(["verify-lemmas", "--n", "2", "--res", "9",
          "--report", "lemmas.json"])
    payload = json.loads((tmp_path / "lemmas.json").read_text(),
                         parse_constant=_reject_constant)
    printed = json.loads(capsys.readouterr().out,
                         parse_constant=_reject_constant)
    assert printed == payload
    blocks = {b["name"]: b for b in payload["result"]["lemmas"]}
    assert blocks["taylor_remainder"]["worst_ratio"] == "inf"


# ---------------------------------------------------------------------------
# each quantity is measured once


def _count_calls(monkeypatch, names):
    """Count calls of jetsolve functions, under every name jetsolve binds."""
    counts = dict.fromkeys(names, 0)
    modules = [mod for key, mod in sorted(sys.modules.items())
               if key == "jetsolve" or key.startswith("jetsolve.")]
    for name in names:
        mod_name, fn_name = name.split(".")
        original = getattr(sys.modules[f"jetsolve.{mod_name}"], fn_name)

        def wrapper(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)
    return counts


@pytest.mark.parametrize("size", [22, 5])
def test_each_quantity_measured_once(monkeypatch, size):
    battery = lemma_battery(2)[:size]
    monkeypatch.setattr(verify, "lemma_battery", lambda n: battery)
    counts = _count_calls(monkeypatch, ["holder.probe_jet",
                                        "holder.taylor_remainder_ratio",
                                        "holder.jet_norm",
                                        "holder.max_weighted_norm",
                                        "potential._apply_potential"])
    # the columns each weighted_norm_values call measures, whichever
    # module makes it (1 for a single (N,) field)
    columns = []
    measure = holder.weighted_norm_values

    def counted(values, *args, **kwargs):
        columns.append(1 if np.ndim(values) == 1 else np.shape(values)[1])
        return measure(values, *args, **kwargs)

    for mod in (holder, verify, potential):
        monkeypatch.setattr(mod, "weighted_norm_values", counted)
    suite = run_lemma_suite(n=2, R=1.0, res=9, alpha=0.5, seed=0)
    B = suite["battery_size"]
    assert B == size
    # one Hessian norm per probe, of its three entries, which the Taylor
    # block sums and the comparison block takes the max of
    assert counts["holder.probe_jet"] == B
    assert columns[:B] == [3] * B
    assert counts["holder.taylor_remainder_ratio"] == B
    # no jet_norm: the comparison block measures orders 0 and 1 of each
    # zero-jet probe, and the potential block one numerator per probe
    assert counts["holder.jet_norm"] == 0
    assert counts["holder.max_weighted_norm"] == 2 * B + min(B, 6)
    # the Banach block: the B fields, then one column per product it
    # measures, at most one per product; then the potential block's sources
    assert columns[B] == B
    products = columns[B + 1:-1]
    assert set(products) == {1}
    assert len(products) <= B * (B + 1) // 2
    assert columns[-1] == min(B, 6)
    # one pass of the constant source, one stacked pass of the norm probes
    assert counts["potential._apply_potential"] == 2
    if B == 22:
        # the bucket bounds leave most of the 253 products unmeasured
        assert len(products) < 253 // 2
