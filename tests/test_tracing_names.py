"""Every jetsolve name the benchmark tracer wraps still exists.

``perfbench/tracing.py`` replaces functions by (module, name) at run time,
so a renamed or deleted function would otherwise surface only when the
traced benchmark runs.  The tracer's tables are read from its source as
literals, without importing it; the last test loads the tracer itself and
checks that every grid and pair set goes through the functions it times.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

import jetsolve
from jetsolve import BallGrid, JetSpec, KobayashiQuery, PairSet, SolveConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tables() -> dict:
    tree = ast.parse(TRACING.read_text())
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("TIMED", "COUNTED",
                                       "ORACLE_BUILDERS")}


def test_traced_names_resolve():
    tables = _tables()
    assert set(tables) == {"TIMED", "COUNTED", "ORACLE_BUILDERS"}
    # the tracer also reads these two by name
    names = [*tables["TIMED"], *tables["ORACLE_BUILDERS"],
             ("picard", "picard_solve"), ("picard", "SolveFailure")]
    missing = [f"{module}.{name}" for module, name in names
               if not callable(getattr(importlib.import_module(
                   f"jetsolve.{module}"), name, None))]
    assert missing == []
    timed = {f"{module}.{name}" for module, name in tables["TIMED"]}
    assert set(tables["COUNTED"]) <= timed


def _tracer_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_grid_and_pair_set_goes_through_a_traced_function(monkeypatch):
    # the per-layer split times grid.build_grid and grid.build_pair_set, so
    # a grid or pair set made another way (from a shared lattice ball, say)
    # would drop out of it: a halving solve and a Kobayashi search make
    # every one of theirs through those two functions
    made = {BallGrid: [], PairSet: []}
    for cls in made:
        def init(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            made[_cls].append(self)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", init)
    saddle = [jetsolve.HarmonicPolynomial({(2, 0): 0.6, (0, 2): -0.6})]
    solve = SolveConfig(R0=3.0, res=17, seed=4, gamma0=40.0, max_iter=7,
                        harmonic_seed=saddle)
    query = KobayashiQuery(jetsolve.hyperbolic_disk_target(2), np.zeros(2),
                           np.array([0.4, 0.0]), max_steps=3)
    tracer = _tracer_module(monkeypatch).Tracer()
    with tracer:
        report = tracer.run_call(lambda: jetsolve.solve_system(
            jetsolve.minimal_surface_system(2, q_bound=2.5),
            JetSpec.zero(1, 2), solve))
        est = tracer.run_call(lambda: jetsolve.estimate(
            query, solve_config=SolveConfig(res=7)))
    assert len({a.R for a in report.attempts}) >= 2
    assert len(est.outcomes) == 3
    grids = made[BallGrid]
    assert len(grids) == len(tracer.grids) >= 5
    assert all(a is b for a, b in zip(grids, tracer.grids))
    assert tracer.span_counts()["grid.build_grid"] == len(grids)
    assert tracer.counts["grid.pair_sets"] == len(made[PairSet]) >= 5
