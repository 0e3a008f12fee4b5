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
                      integral_value, real_value)
from .verify import run_lemma_suite

EXIT_OK = 0
EXIT_SOLVE_FAILURE = 2
EXIT_CONFIG_ERROR = 3
EXIT_ORACLE_FAILURE = 4

# version of the report.json layout, bumped when the layout changes
REPORT_SCHEMA = 6

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


def _coerce(cfg: dict, key: str, caster):
    if key not in cfg or cfg[key] is None:
        return None
    try:
        return (integral_value if caster is int else real_value)(cfg[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"field {key!r}: cannot interpret {cfg[key]!r} "
                          f"as {caster.__name__}") from exc


def _build_solve_config(cfg: dict) -> SolveConfig:
    kwargs = {}
    for key, caster in _SOLVER_KEYS.items():
        if key in cfg and cfg[key] is not None:
            kwargs[key] = _coerce(cfg, key, caster)
    if "harmonic_seed" in cfg and cfg["harmonic_seed"] is not None:
        kwargs["harmonic_seed"] = _parse_seed(cfg["harmonic_seed"])
    try:
        return SolveConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_seed(raw) -> list[HarmonicPolynomial]:
    """Per-component seed: [[ [[e1..en], coeff], ... ], ...], each
    component's pairs read by HarmonicPolynomial itself."""
    if not isinstance(raw, list):
        raise ConfigError("field 'harmonic_seed': expected a list with one "
                          "entry per solution component")
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
    return polys


def _parse_jet(raw, m: int, n: int) -> JetSpec:
    if raw is None:
        return JetSpec.zero(m, n)
    if not isinstance(raw, dict) or set(raw) - {"c0", "c1"}:
        raise ConfigError("field 'jet': expected {'c0': [...], 'c1': [[...]]}")
    try:
        c0 = np.asarray(raw.get("c0", np.zeros(m)), dtype=np.float64)
        c1 = np.asarray(raw.get("c1", np.zeros((m, n))), dtype=np.float64)
        jet = JetSpec(c0, c1.reshape(m, n))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field 'jet': {exc}") from exc
    if jet.m != m or jet.n != n:
        raise ConfigError(
            f"field 'jet': expected c0 of length {m} and c1 of shape "
            f"({m}, {n})")
    return jet


def _parse_system(cfg: dict, n: int):
    raw = cfg.get("system")
    if raw is None:
        raise ConfigError("field 'system': required (name or "
                          "{'name':..., 'params': {...}})")
    if isinstance(raw, str):
        name, params = raw, {}
    elif isinstance(raw, dict) and "name" in raw:
        name = raw["name"]
        params = raw.get("params", {}) or {}
        if not isinstance(params, dict):
            raise ConfigError("field 'system.params': expected an object")
    else:
        raise ConfigError("field 'system': expected a name or an object "
                          "with a 'name' entry")
    if name not in SYSTEM_REGISTRY:
        raise ConfigError(
            f"field 'system.name': unknown system {name!r}; "
            f"known: {sorted(SYSTEM_REGISTRY)}")
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


def _write_report(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_report_text(payload))


def _write_field_csv(path: str, coords: np.ndarray, values: np.ndarray,
                     residuals: np.ndarray) -> None:
    n = coords.shape[1]
    m = values.shape[1]
    header = ([f"x{i+1}" for i in range(n)] + [f"u{k+1}" for k in range(m)]
              + ["residual"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(coords.shape[0]):
            row = [repr(float(v)) for v in coords[i]]
            row += [repr(float(v)) for v in values[i]]
            row.append(repr(float(residuals[i])))
            fh.write(",".join(row) + "\n")


def _metadata(started: float) -> dict:
    return {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "elapsed_seconds": time.monotonic() - started,
    }


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

    n = _coerce(cfg, "n", int)
    if n not in (2, 3):
        raise ConfigError(f"field 'n': must be 2 or 3, got {cfg.get('n')!r}")
    name, params, system = _parse_system(cfg, n)
    jet = _parse_jet(cfg.get("jet"), system.m, n)
    solve_cfg = _build_solve_config(cfg)
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
        payload = _failure_payload(resolved, str(exc),
                                   exc.report.summary() if exc.report else None,
                                   started)
        _write_report(report_path, payload)
        print(f"solve failed: {exc}", file=sys.stderr)
        return EXIT_SOLVE_FAILURE
    except OracleFailure as exc:
        payload = _failure_payload(resolved, str(exc), None, started)
        _write_report(report_path, payload)
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE_FAILURE

    grid = report.grid
    payload = {
        "schema": REPORT_SCHEMA,
        "command": "solve",
        "config": resolved,
        "grid": {
            "n": grid.n, "R": grid.R, "res": grid.res, "h": grid.h,
            "node_count": grid.node_count,
            "interior_count": int(grid.interior_mask.sum()),
        },
        "result": report.summary(),
        "metadata": _metadata(started),
    }
    _write_report(report_path, payload)
    _write_field_csv(field_path, report.original_coords, report.reconstructed,
                     report.node_residuals)
    print(f"converged at R={report.final_R:g} after {report.iterations} "
          f"iterations; residual={report.residual:.3e}; "
          f"report -> {report_path}; field -> {field_path}")
    return EXIT_OK


def _failure_payload(resolved: dict, message: str, partial: dict | None,
                     started: float, command: str = "solve") -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "command": command,
        "config": resolved,
        "error": message,
        "result": partial,
        "metadata": _metadata(started),
    }


def _cmd_verify_lemmas(args: argparse.Namespace) -> int:
    started = time.monotonic()
    n = args.n if args.n is not None else 2
    if n not in (2, 3):
        raise ConfigError(f"field 'n': must be 2 or 3, got {n!r}")
    radius = args.R if args.R is not None else 1.0
    res = args.res if args.res is not None else 17
    alpha = args.alpha if args.alpha is not None else 0.5
    seed = args.seed if args.seed is not None else 0
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
    payload = {
        "schema": REPORT_SCHEMA,
        "command": "verify-lemmas",
        "config": {"n": n, "R": radius, "res": res, "alpha": alpha,
                   "seed": seed},
        "result": result,
        "metadata": _metadata(started),
    }
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

    raw_target = cfg.get("target")
    if raw_target is None:
        raise ConfigError("field 'target': required (name or "
                          "{'name':..., 'dim':...})")
    if isinstance(raw_target, str):
        tname, tdim = raw_target, 2
    elif isinstance(raw_target, dict) and "name" in raw_target:
        tname = raw_target["name"]
        tdim = _coerce(raw_target, "dim", int)
        tdim = 2 if tdim is None else tdim
        if tdim < 1:
            raise ConfigError(f"field 'dim': must be >= 1, got {tdim}")
    else:
        raise ConfigError("field 'target': expected a name or an object "
                          "with a 'name' entry")
    if tname not in TARGET_REGISTRY:
        raise ConfigError(f"field 'target.name': unknown target {tname!r}; "
                          f"known: {sorted(TARGET_REGISTRY)}")
    target = TARGET_REGISTRY[tname](tdim)

    if "p" not in cfg or "X" not in cfg:
        raise ConfigError("fields 'p' and 'X': both required")
    solver_cfg = cfg.get("solver") or {}
    if not isinstance(solver_cfg, dict):
        raise ConfigError("field 'solver': expected an object of solver keys")
    _reject_unknown(solver_cfg, set(_SOLVER_KEYS), where="solver")
    base = _build_solve_config(solver_cfg)
    schedule = {key: _coerce(cfg, key, caster)
                for key, caster in _SCHEDULE_KEYS.items()
                if cfg.get(key) is not None}
    try:
        query = KobayashiQuery(
            target=target,
            p=np.asarray(cfg["p"], dtype=np.float64),
            X=np.asarray(cfg["X"], dtype=np.float64),
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
    except OracleFailure as exc:
        _write_report(report_path,
                      _failure_payload(resolved, str(exc), None, started,
                                       command="kobayashi"))
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE_FAILURE

    payload = {
        "schema": REPORT_SCHEMA,
        "command": "kobayashi",
        "config": resolved,
        "result": dataclasses.asdict(est),
        "metadata": _metadata(started),
    }
    _write_report(report_path, payload)
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
    pv.add_argument("--n", type=int, default=None)
    pv.add_argument("--R", type=float, default=None)
    pv.add_argument("--res", type=int, default=None)
    pv.add_argument("--alpha", type=float, default=None)
    pv.add_argument("--seed", type=int, default=None)
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
