"""The executable lemma suite: every block passes on the stock battery."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from jetsolve import (PairSet, build_grid, build_pair_set, polynomial,
                      run_lemma_suite)
from jetsolve import holder, oracle, potential, verify
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
    suite = run_lemma_suite(n=2, R=1.0, res=res, alpha=0.5, seed=0)
    grid = suite["grid"]
    assert grid["pairs"] == drawn
    if res == 33:
        # and the counts the README quotes for this grid, with the measured
        # norms of the 253 products and of the 44 zero-jet norms
        blocks = {b["name"]: b for b in suite["lemmas"]}
        assert suite["battery_size"] == 22
        assert grid["distinct_pairs"] == 148_469
        assert blocks["banach_algebra"]["measured"] == 105
        assert blocks["norm_comparison"]["measured"] == 11
        readme = " ".join((Path(__file__).resolve().parents[1]
                           / "README.md").read_text(encoding="utf-8").split())
        for quoted in ("148,469", "105 of the 253", "11 of the 44"):
            assert quoted in readme, quoted
    else:
        assert grid["distinct_pairs"] == drawn


def test_suite_3d_smoke():
    suite = run_lemma_suite(n=3, R=0.5, res=9, alpha=0.5, seed=0)
    assert suite["all_passed"] is True


@pytest.mark.parametrize("res", [9, 33])
def test_suite_rejects_a_negative_seed_on_any_grid(res):
    # res 9 reads no seed, as its pair set is complete; it is checked anyway
    with pytest.raises(ValueError, match="seed"):
        run_lemma_suite(n=2, R=1.0, res=res, alpha=0.5, seed=-1)


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
                                        "holder.taylor_work",
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
    steps = []
    pair_steps = PairSet.steps

    def counted_steps(self, *args, **kwargs):
        steps.append(self.size)
        return pair_steps(self, *args, **kwargs)

    monkeypatch.setattr(PairSet, "steps", counted_steps)
    suite = run_lemma_suite(n=2, R=1.0, res=9, alpha=0.5, seed=0)
    blocks = {b["name"]: b for b in suite["lemmas"]}
    B = suite["battery_size"]
    assert B == size
    # one Hessian norm per probe, of its three entries, which the Taylor
    # block sums and the comparison block takes the max of
    assert counts["holder.probe_jet"] == B
    assert columns[:B] == [3] * B
    assert counts["holder.taylor_remainder_ratio"] == B
    # the pair steps and their squares once, for every probe's Taylor scan
    assert counts["holder.taylor_work"] == 1
    assert steps == [suite["grid"]["distinct_pairs"]]
    # the comparison block measures the order-0 and order-1 norms of the
    # zero-jet probes that its bounds leave open, and the potential block
    # one numerator per probe
    comparison = blocks["norm_comparison"]["measured"]
    assert counts["holder.max_weighted_norm"] == comparison + min(B, 6)
    # the B fields once, which the Banach and potential blocks share; then
    # one column per product the Banach block measures, at most one per
    # product; the potential block measures no source norm again
    assert columns[B] == B
    products = columns[B + 1:]
    assert set(products) == {1}
    assert len(products) == blocks["banach_algebra"]["measured"]
    assert len(products) <= B * (B + 1) // 2
    # one pass of the constant source, one stacked pass of the norm probes
    assert counts["potential._apply_potential"] == 2
    if B == 22:
        # the bucket bounds leave most of the 253 products and of the 44
        # zero-jet norms unmeasured
        assert len(products) < 253 // 2
        assert comparison < 2 * B


@pytest.mark.parametrize("n,res,seed", [(2, 17, 1), (3, 9, 0)])
def test_potential_block_is_the_public_check(n, res, seed):
    # the suite's potential block takes the battery's values and norms from
    # the suite; its ratio is bitwise that of check_potential_norm_bound,
    # which evaluates and measures its probes itself
    suite = run_lemma_suite(n=n, R=1.0, res=res, alpha=0.5, seed=seed)
    block = {b["name"]: b for b in suite["lemmas"]}["potential_norm_bound"]
    pairs = build_pair_set(build_grid(n, 1.0, res), seed=seed)
    ratios = potential.check_potential_norm_bound(lemma_battery(n)[:6], 0.5,
                                                  pairs)
    assert block["max_ratio"].hex() == max(ratios.values()).hex()
    assert block["n_probes"] == len(ratios)


# ---------------------------------------------------------------------------
# the bounded comparison block against the one that measures every norm


def _comparison_cases(n, res, alpha, seed):
    grid = build_grid(n, 1.0, res)
    pairs = build_pair_set(grid, seed=seed)
    battery = lemma_battery(n)
    jets = [holder.probe_jet(probe, alpha, pairs) for probe in battery]
    return battery, jets, pairs


def _same_comparison(got, want):
    assert got["passed"] is want["passed"]
    assert got["violations"] == want["violations"]
    for key in ("worst_ratio_order0", "worst_ratio_order1"):
        assert got[key].hex() == want[key].hex(), key


@pytest.mark.parametrize("n,res", [(2, 9), (2, 17), (2, 33), (3, 9), (3, 13)])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_comparison_block_matches_reference(n, res, alpha):
    for seed in (0, 5, 11):
        battery, jets, pairs = _comparison_cases(n, res, alpha, seed)
        got = verify._comparison_block(battery, jets, pairs, alpha)
        want = oracle.norm_comparison_reference(battery, jets, pairs, alpha)
        _same_comparison(got, want)
        assert 0 < got["measured"] <= 2 * len(battery)


@pytest.mark.parametrize("n,res", [(2, 17), (3, 9)])
def test_comparison_block_matches_reference_on_violations(n, res,
                                                          monkeypatch):
    # a base of (3nR) / 4 puts the order-1 ratios of the worst probes
    # past 1, so some probes fail and others pass
    base = holder.comparison_base
    for module in (verify, oracle):
        monkeypatch.setattr(module, "comparison_base",
                            lambda grid: 0.25 * base(grid))
    battery, jets, pairs = _comparison_cases(n, res, 0.5, 0)
    got = verify._comparison_block(battery, jets, pairs, 0.5)
    want = oracle.norm_comparison_reference(battery, jets, pairs, 0.5)
    _same_comparison(got, want)
    assert 0 < len(got["violations"]) < len(battery)
