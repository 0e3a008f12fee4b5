"""Command-line front end: solve runs, lemma suites, Kobayashi queries.

Usage:
    jetsolve solve <config.json> [--key value ...]
    jetsolve verify-lemmas [--n 2 --R 1.0 --res 17 --alpha 0.5]
    jetsolve kobayashi <config.json> [--key value ...]

A config file is the single positional argument; flags mirror top-level
config keys and override file values.  Outputs are a `report.json`
(versioned by REPORT_SCHEMA, deterministic for a fixed config and seed —
volatile values live in the `metadata` field) and, for solves, a
`field.csv` with one row per node.

Exit codes: 0 success, 2 solve failure (no convergence / iterate escape /
inconclusive search), 3 configuration or usage error, 4 oracle or
verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from datetime import datetime, timezone

import numpy as np

from .kobayashi import KobayashiQuery, estimate
from .picard import (HarmonicPolynomial, OracleFailure, SolveConfig,
                     SolveFailure, solve_system)
from .reduce import ChartError, EllipticityError, JetSpec
from .systems import (SYSTEM_REGISTRY, TARGET_REGISTRY, build_system,
                      integral_value, real_array)
from .verify import run_lemma_suite

EXIT_OK = 0
EXIT_SOLVE_FAILURE = 2
EXIT_CONFIG_ERROR = 3
EXIT_ORACLE_FAILURE = 4

# version of the report.json layout, bumped when the layout changes
REPORT_SCHEMA = 8

_SOLVER_KEYS = {
    "R0": float, "R_min": float, "res": int, "alpha": float, "tol": float,
    "max_iter": int, "gamma0": float, "seed": int,
}

# the Kobayashi radius schedule; KobayashiQuery holds the defaults
_SCHEDULE_KEYS = {"r_start": float, "growth": float, "max_steps": int}


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, so that it exits 3 like any
    other bad configuration; subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    return raw


def _reject_unknown(cfg: dict, known: set[str], where: str = "config") -> None:
    unknown = set(cfg) - known
    if unknown:
        raise ConfigError(f"unknown {where} field(s): {sorted(unknown)}")


def _merge_flags(file_cfg: dict, args: argparse.Namespace,
                 keys: list[str]) -> dict:
    merged = dict(file_cfg)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _coerce(cfg: dict, key: str):
    """cfg[key] as an int, or None where it is unset."""
    if key not in cfg or cfg[key] is None:
        return None
    try:
        return integral_value(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"field {key!r}: cannot interpret {cfg[key]!r} "
                          "as int") from exc


def _build_solve_config(cfg: dict, m: int, n: int) -> SolveConfig:
    # SolveConfig reads each number and names the field it rejects; the
    # seed needs one component per m and exponents of length n
    kwargs = {key: cfg[key] for key in _SOLVER_KEYS
              if cfg.get(key) is not None}
    if "harmonic_seed" in cfg and cfg["harmonic_seed"] is not None:
        kwargs["harmonic_seed"] = _parse_seed(cfg["harmonic_seed"], m, n)
    try:
        return SolveConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_seed(raw, m: int, n: int) -> list[HarmonicPolynomial]:
    """Per-component seed: [[ [[e1..en], coeff], ... ], ...], one entry for
    each of the m components, whose pairs HarmonicPolynomial reads itself
    and whose exponents have length n."""
    if not isinstance(raw, list) or len(raw) != m:
        raise ConfigError("field 'harmonic_seed': expected a list with one "
                          f"entry per solution component ({m})")
    polys = []
    for k, comp in enumerate(raw):
        if comp is None or comp == []:
            polys.append(None)
            continue
        try:
            polys.append(HarmonicPolynomial(comp))
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"field 'harmonic_seed[{k}]': {exc}") from exc
        if polys[-1].dimension != n:
            raise ConfigError(f"field 'harmonic_seed[{k}]': exponents of "
                              f"length {polys[-1].dimension}, expected {n}")
    return polys


def _parse_jet(raw, m: int, n: int) -> JetSpec:
    if raw is None:
        return JetSpec.zero(m, n)
    if not isinstance(raw, dict) or set(raw) - {"c0", "c1"}:
        raise ConfigError("field 'jet': expected {'c0': [...], 'c1': [[...]]}")
    arrays = {}
    for key, default in (("c0", np.zeros(m)), ("c1", np.zeros((m, n)))):
        try:
            arrays[key] = real_array(raw.get(key, default))
        except ValueError as exc:
            raise ConfigError(f"field 'jet.{key}': {exc}") from exc
    try:
        jet = JetSpec(arrays["c0"], arrays["c1"].reshape(m, n))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field 'jet': {exc}") from exc
    if jet.m != m or jet.n != n:
        raise ConfigError(
            f"field 'jet': expected c0 of length {m} and c1 of shape "
            f"({m}, {n})")
    return jet


def _parse_named(cfg: dict, key: str, registry: dict,
                 form: str) -> tuple[str, dict]:
    """cfg[key], a registry name or an object of the given form with a
    'name' entry, as (name, the object); a bare name gives an empty one."""
    raw = cfg.get(key)
    if raw is None:
        raise ConfigError(f"field '{key}': required (name or {form})")
    if isinstance(raw, str):
        name, raw = raw, {}
    elif isinstance(raw, dict) and "name" in raw:
        name = raw["name"]
    else:
        raise ConfigError(f"field '{key}': expected a name or an object "
                          "with a 'name' entry")
    if not isinstance(name, str) or name not in registry:
        raise ConfigError(f"field '{key}.name': unknown {key} {name!r}; "
                          f"known: {sorted(registry)}")
    return name, raw


def _parse_system(cfg: dict, n: int):
    name, raw = _parse_named(cfg, "system", SYSTEM_REGISTRY,
                             "{'name':..., 'params': {...}}")
    params = raw.get("params", {}) or {}
    if not isinstance(params, dict):
        raise ConfigError("field 'system.params': expected an object")
    try:
        system = build_system(name, n, params)
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise ConfigError(f"field 'system.params': {exc}") from exc
    return name, params, system


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (float, np.floating)):
        # strict JSON has no non-finite numbers: str gives "inf", "-inf", "nan"
        value = float(obj)
        return value if math.isfinite(value) else str(value)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, HarmonicPolynomial):
        return obj.to_jsonable()
    return obj


def _report_text(payload: dict) -> str:
    """The text of a report: strict JSON, which any JSON reader parses."""
    return json.dumps(_jsonify(payload), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def _payload(command: str, config: dict, started: float, **fields) -> dict:
    """A report.json payload: the schema, the command, the echoed config,
    the command's own fields and the metadata block, which holds every
    volatile value."""
    metadata = {"timestamp": datetime.now(timezone.utc).isoformat(),
                "elapsed_seconds": time.monotonic() - started}
    return {"schema": REPORT_SCHEMA, "command": command, "config": config,
            **fields, "metadata": metadata}


def _write_text(path: str, text: str) -> None:
    """Write an output file; an unwritable path is a ConfigError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc


def _write_report(path: str, payload: dict) -> None:
    _write_text(path, _report_text(payload))


def _write_field_csv(path: str, coords: np.ndarray, values: np.ndarray,
                     residuals: np.ndarray) -> None:
    n = coords.shape[1]
    m = values.shape[1]
    header = ([f"x{i+1}" for i in range(n)] + [f"u{k+1}" for k in range(m)]
              + ["residual"])
    rows = [header] + [[repr(float(v)) for v in (*x, *u, r)]
                       for x, u, r in zip(coords, values, residuals)]
    _write_text(path, "".join(",".join(row) + "\n" for row in rows))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(args: argparse.Namespace) -> int:
    started = time.monotonic()
    file_cfg = _load_config_file(args.config)
    cfg = _merge_flags(file_cfg, args,
                       list(_SOLVER_KEYS) + ["system", "n", "report", "field"])
    _reject_unknown(cfg, set(_SOLVER_KEYS) | {
        "system", "n", "m", "jet", "harmonic_seed", "report", "field"})

    n = _coerce(cfg, "n")
    if n not in (2, 3):
        raise ConfigError(f"field 'n': must be 2 or 3, got {cfg.get('n')!r}")
    name, params, system = _parse_system(cfg, n)
    jet = _parse_jet(cfg.get("jet"), system.m, n)
    solve_cfg = _build_solve_config(cfg, system.m, n)
    report_path = str(cfg.get("report", "report.json"))
    field_path = str(cfg.get("field", "field.csv"))

    resolved = {
        "system": {"name": name, "params": params},
        "n": n,
        "m": system.m,
        "jet": {"c0": jet.c0.tolist(), "c1": jet.c1.tolist()},
        "harmonic_seed": solve_cfg.harmonic_seed,
        "report": report_path,
        "field": field_path,
        **{k: getattr(solve_cfg, k) for k in _SOLVER_KEYS},
        "R_min": solve_cfg.radius_floor,
    }

    try:
        report = solve_system(system, jet, solve_cfg)
    except SolveFailure as exc:
        # an oracle failure before the first attempt has no history
        _write_report(report_path, _payload(
            "solve", resolved, started, error=str(exc),
            result=None if exc.report is None else exc.report.summary()))
        oracle = isinstance(exc, OracleFailure)
        print(f"{'oracle failure' if oracle else 'solve failed'}: {exc}",
              file=sys.stderr)
        return EXIT_ORACLE_FAILURE if oracle else EXIT_SOLVE_FAILURE

    grid = report.grid
    _write_report(report_path, _payload(
        "solve", resolved, started,
        grid={
            "n": grid.n, "R": grid.R, "res": grid.res, "h": grid.h,
            "node_count": grid.node_count,
            "interior_count": int(grid.interior_mask.sum()),
        },
        result=report.summary()))
    _write_field_csv(field_path, report.original_coords, report.reconstructed,
                     report.node_residuals)
    print(f"converged at R={report.final_R:g} after {report.iterations} "
          f"iterations; residual={report.residual:.3e}; "
          f"report -> {report_path}; field -> {field_path}")
    return EXIT_OK


def _cmd_verify_lemmas(args: argparse.Namespace) -> int:
    started = time.monotonic()
    n, radius, res = args.n, args.R, args.res
    alpha, seed = args.alpha, args.seed
    if n not in (2, 3):
        raise ConfigError(f"field 'n': must be 2 or 3, got {n!r}")
    if not 0 < alpha < 1:
        raise ConfigError(f"field 'alpha': must lie in (0, 1), got {alpha}")
    if not 0 < radius < math.inf:
        raise ConfigError(f"field 'R': must be positive and finite, "
                          f"got {radius}")
    if res < 5 or res % 2 == 0:
        raise ConfigError(f"field 'res': must be odd and >= 5, got {res}")
    if seed < 0:
        raise ConfigError(f"field 'seed': must be >= 0, got {seed}")

    try:
        result = run_lemma_suite(n=n, R=radius, res=res, alpha=alpha,
                                 seed=seed)
    except ValueError as exc:  # every argument is valid: R overflows a field
        raise ConfigError(f"field 'R': {radius} is out of range "
                          f"({exc})") from exc
    payload = _payload("verify-lemmas", {"n": n, "R": radius, "res": res,
                                         "alpha": alpha, "seed": seed},
                       started, result=result)
    print(_report_text(payload), end="")
    if args.report:
        _write_report(args.report, payload)
    return EXIT_OK if result["all_passed"] else EXIT_ORACLE_FAILURE


def _cmd_kobayashi(args: argparse.Namespace) -> int:
    started = time.monotonic()
    file_cfg = _load_config_file(args.config)
    cfg = _merge_flags(file_cfg, args, list(_SCHEDULE_KEYS) + ["report"])
    _reject_unknown(cfg, set(_SCHEDULE_KEYS) | {"target", "p", "X", "solver",
                                                "report"})

    tname, raw_target = _parse_named(cfg, "target", TARGET_REGISTRY,
                                     "{'name':..., 'dim':...}")
    tdim = _coerce(raw_target, "dim")
    tdim = 2 if tdim is None else tdim
    if tdim < 1:
        raise ConfigError(f"field 'dim': must be >= 1, got {tdim}")
    target = TARGET_REGISTRY[tname](tdim)

    if "p" not in cfg or "X" not in cfg:
        raise ConfigError("fields 'p' and 'X': both required")
    solver_cfg = cfg.get("solver") or {}
    if not isinstance(solver_cfg, dict):
        raise ConfigError("field 'solver': expected an object of solver keys")
    _reject_unknown(solver_cfg, set(_SOLVER_KEYS), where="solver")
    # the search solves harmonic maps from the plane into the target
    base = _build_solve_config(solver_cfg, tdim, 2)
    schedule = {key: cfg[key] for key in _SCHEDULE_KEYS
                if cfg.get(key) is not None}
    try:
        query = KobayashiQuery(
            target=target,
            p=cfg["p"],
            X=cfg["X"],
            **schedule,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    report_path = str(cfg.get("report", "report.json"))
    resolved = {
        "target": {"name": tname, "dim": tdim},
        "p": query.p.tolist(),
        "X": query.X.tolist(),
        **{k: getattr(query, k) for k in _SCHEDULE_KEYS},
        "solver": {k: getattr(base, k) for k in _SOLVER_KEYS},
        "report": report_path,
    }

    try:
        est = estimate(query, solve_config=base)
    except ValueError as exc:  # estimate raises it only for its inputs
        raise ConfigError(str(exc)) from exc

    _write_report(report_path, _payload(
        "kobayashi", resolved, started, result=dataclasses.asdict(est)))
    if est.inconclusive:
        print("search inconclusive: no scheduled radius admitted a solution "
              f"(details in {report_path})", file=sys.stderr)
        return EXIT_SOLVE_FAILURE
    bound = ("0 (certificate: " + est.certificate + ")"
             if est.certificate else f"{est.upper_bound:g}")
    print(f"upper bound {bound}; report -> {report_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="jetsolve",
        description="Interior solver for quasi-linear elliptic systems with "
                    "prescribed 1-jets, plus lemma verification and "
                    "Kobayashi-type upper bounds.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    ps = sub.add_parser("solve", help="run the fixed-point solver")
    ps.add_argument("config", nargs="?", default=None,
                    help="JSON config file (flags override its values)")
    ps.add_argument("--system", type=str, default=None,
                    help="system name (overrides config)")
    ps.add_argument("--n", type=int, default=None, help="domain dimension")
    for key, caster in _SOLVER_KEYS.items():
        ps.add_argument(f"--{key}", type=caster, default=None)
    ps.add_argument("--report", type=str, default=None,
                    help="report.json output path")
    ps.add_argument("--field", type=str, default=None,
                    help="field.csv output path")

    pv = sub.add_parser("verify-lemmas", help="run the executable-lemma suite")
    pv.add_argument("--n", type=int, default=2)
    pv.add_argument("--R", type=float, default=1.0)
    pv.add_argument("--res", type=int, default=17)
    pv.add_argument("--alpha", type=float, default=0.5)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--report", type=str, default=None,
                    help="also write the JSON report to this path")

    pk = sub.add_parser("kobayashi", help="estimate a Kobayashi-type upper bound")
    pk.add_argument("config", nargs="?", default=None,
                    help="JSON config file with target, p, X")
    for key, caster in _SCHEDULE_KEYS.items():
        pk.add_argument(f"--{key}", type=caster, default=None)
    pk.add_argument("--report", type=str, default=None)
    return parser


_COMMANDS = {"solve": _cmd_solve, "verify-lemmas": _cmd_verify_lemmas,
             "kobayashi": _cmd_kobayashi}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.cmd](args)
    except (ConfigError, ChartError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except EllipticityError as exc:
        print(f"ellipticity check failed: {exc}", file=sys.stderr)
        return EXIT_ORACLE_FAILURE


if __name__ == "__main__":
    sys.exit(main())
