"""The benchmark's workloads: inputs, the timed call, and the answer digest.

Every call builds fresh inputs (new SystemDefs, configs and queries) and
gets a ``SolveConfig.seed`` from a pool of ``POOL_SIZE`` config seeds:
call ``i`` of a run with benchmark seed ``s`` takes entry ``(s + i) %
POOL_SIZE``.  The config seed picks the sampled Hoelder pair set and the
ellipticity and deviation draws, and through the sampled norms it can
change the iteration path: on the 2D halving workload one config seed in
about seventy runs the first attempt to max_iter (60 sweeps) instead of
stopping for no contraction after 8.  ``reference.json`` therefore holds
one digest per pool entry, recorded by make_reference.py, and every call
is checked against the digest of its own entry.

No two calls among the first ``POOL_SIZE`` of a run pose the same problem
object or the same config, so a cache keyed on the whole problem would
miss on every call, as it does for a user who runs one solve per process.
jetsolve keeps its caches on each ``BallGrid`` and builds new grids in
every call, so nothing carries over from one call to the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import jetsolve
from jetsolve import (HarmonicPolynomial, JetSpec, KobayashiQuery,
                      SolveConfig)

POOL_SIZE = 16

# Relative tolerances of the gate.  Status, attempt radii, outcomes and
# iteration counts must match exactly.  With the config seed fixed, the
# residual and the solution norm are pure functions of the iterates, so
# only reordered floating-point sums may move them.  upper_bound is 1/R for
# a radius of the fixed schedule.
TOLERANCES = {"residual": 1e-6, "solution_norm": 1e-6, "upper_bound": 1e-9}
# Digest entries held to an absolute limit instead of the reference value:
# the solution's origin jet, and the residual of the certified Kobayashi
# disks (their conformal linear jets solve the system exactly).  The
# reference does not store them.
LIMITS = {"jet_value": 1e-10, "jet_gradient": 1e-10, "max_residual": 1e-10}
# Digest entries that must hold whatever the reference says.
REQUIRED = {"in_chart": True, "all_passed": True}


def pool_entry(seed: int, index: int) -> int:
    """Pool entry of call ``index`` in a run with benchmark seed ``seed``."""
    return (seed + index) % POOL_SIZE


def config_seed(entry: int) -> int:
    """The ``SolveConfig.seed`` of a pool entry."""
    return int(np.random.SeedSequence(entry).generate_state(1)[0])


@dataclass(frozen=True)
class Workload:
    name: str
    # (config seed, small) -> the zero-argument top-level call
    prepare: Callable[[int, bool], Callable[[], object]]
    digest: Callable[[object], dict]


# -- solve-3d-sphere ----------------------------------------------------------

def _prepare_3d(cfg_seed: int, small: bool):
    system = jetsolve.harmonic_map_system(
        3, jetsolve.sphere_stereographic_target(2))
    jet = JetSpec(np.zeros(2), np.array([[0.3, 0.0, 0.0], [0.0, 0.1, 0.0]]))
    config = SolveConfig(R0=1.0, res=7 if small else 21, seed=cfg_seed)
    return lambda: jetsolve.solve_system(system, jet, config)


# -- solve-2d-halving ---------------------------------------------------------

def _prepare_2d(cfg_seed: int, small: bool):
    system = jetsolve.minimal_surface_system(2, q_bound=2.5)
    seed_poly = [HarmonicPolynomial({(2, 0): 0.6, (0, 2): -0.6})]
    config = SolveConfig(R0=3.0, res=9 if small else 33, seed=cfg_seed,
                         gamma0=40.0, max_iter=60, harmonic_seed=seed_poly)
    return lambda: jetsolve.solve_system(system, JetSpec.zero(1, 2), config)


def _solve_digest(report) -> dict:
    return {
        "status": report.status,
        "nodes": report.grid.node_count,
        "attempts": [[a.R, a.outcome, a.iterations] for a in report.attempts],
        "residual": report.residual,
        "solution_norm": report.solution_norm,
        "jet_value": report.jet_value,
        "jet_gradient": report.jet_gradient,
        "in_chart": report.in_chart,
    }


# -- kobayashi-search ---------------------------------------------------------

# One call estimates the bound for four tangent vectors of length 0.4 at
# the chart centre, in this order.  The schedule 0.25 * 1.5^k certifies six
# radii for each, and the seventh leaves the chart (an OracleFailure).  The
# directions cost different amounts, so the whole batch is one call.
KOBAYASHI_DIRECTIONS = (0.0, 0.5, 1.0, 2.0)


def _prepare_kobayashi(cfg_seed: int, small: bool):
    target = jetsolve.hyperbolic_disk_target(2)
    queries = [KobayashiQuery(target, np.zeros(2),
                              0.4 * np.array([np.cos(a), np.sin(a)]))
               for a in KOBAYASHI_DIRECTIONS]
    config = SolveConfig(res=7 if small else 21, tol=1e-7, seed=cfg_seed)
    return lambda: [jetsolve.estimate(q, solve_config=config) for q in queries]


def _kobayashi_digest(estimates) -> dict:
    return {
        "upper_bound": [e.upper_bound for e in estimates],
        "inconclusive": [e.inconclusive for e in estimates],
        "outcomes": [[[o.R, o.success, o.reason, o.iterations]
                      for o in e.outcomes] for e in estimates],
        "max_residual": max((o.residual for e in estimates for o in e.outcomes
                             if o.residual is not None), default=0.0),
    }


# -- lemma-suite-2d -----------------------------------------------------------

def _prepare_lemmas(cfg_seed: int, small: bool):
    res = 9 if small else 33
    return lambda: jetsolve.run_lemma_suite(n=2, R=1.0, res=res, seed=cfg_seed)


def _lemma_digest(suite) -> dict:
    return {
        "all_passed": suite["all_passed"],
        "lemmas": [[b["name"], b["passed"]] for b in suite["lemmas"]],
        "nodes": suite["grid"]["nodes"],
        "pairs": suite["grid"]["pairs"],
    }


WORKLOADS = {w.name: w for w in (
    Workload("solve-3d-sphere", _prepare_3d, _solve_digest),
    Workload("solve-2d-halving", _prepare_2d, _solve_digest),
    Workload("kobayashi-search", _prepare_kobayashi, _kobayashi_digest),
    Workload("lemma-suite-2d", _prepare_lemmas, _lemma_digest),
)}


def _rel_close(got, want, tol: float) -> bool:
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_rel_close(g, w, tol) for g, w in zip(got, want)))
    if got is None or want is None:
        return got is want
    return abs(got - want) <= tol * max(abs(want), 1e-300)


def check(digest: dict, want: dict) -> list[str]:
    """Ways in which ``digest`` misses the reference ``want`` (empty: pass)."""
    problems = []
    for key, value in want.items():
        got = digest.get(key)
        if key in TOLERANCES:
            ok = _rel_close(got, value, TOLERANCES[key])
        else:
            ok = got == value
        if not ok:
            problems.append(f"{key}: got {got!r}, want {value!r}")
    for key, limit in LIMITS.items():
        if key in digest and not (digest[key] is not None
                                  and abs(digest[key]) <= limit):
            problems.append(f"{key}: {digest[key]!r} exceeds {limit}")
    for key, value in REQUIRED.items():
        if key in digest and digest[key] is not value:
            problems.append(f"{key}: got {digest[key]!r}, need {value!r}")
    return problems
