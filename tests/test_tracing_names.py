"""Every jetsolve name the benchmark tracer wraps still exists.

``perfbench/tracing.py`` replaces functions by (module, name) at run time,
so a renamed or deleted function would otherwise surface only when the
traced benchmark runs.  The tracer's tables are read from its source as
literals, without importing it.
"""

import ast
import importlib
from pathlib import Path

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
