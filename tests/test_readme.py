"""The README's library examples run as written, and every name they
import is public."""

import ast
import types
from pathlib import Path

import jetsolve

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks(section: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    body = text.split(f"## {section}\n", 1)[1].split("\n## ", 1)[0]
    return [chunk.split("```", 1)[0]
            for chunk in body.split("```python\n")[1:]]


def test_library_quick_start_runs(capsys):
    # one namespace for all blocks, as in one interpreter session
    blocks = _python_blocks("Library quick start")
    assert len(blocks) == 3
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].status == "converged"
    assert namespace["u"].shape == (namespace["report"].grid.node_count, 1)
    assert namespace["suite"]["all_passed"]
    assert namespace["est"].upper_bound > 0
    printed = capsys.readouterr().out.split()
    assert printed[0] == "converged"


def test_public_surface():
    # every name in __all__ is bound by a star import, none is a module,
    # and every name the README's Python blocks import from jetsolve is in
    # __all__, so trimming it cannot drop a documented name
    namespace: dict = {}
    exec("from jetsolve import *", namespace)
    assert set(jetsolve.__all__) <= set(namespace)
    assert len(set(jetsolve.__all__)) == len(jetsolve.__all__)
    assert not [name for name in jetsolve.__all__
                if isinstance(getattr(jetsolve, name), types.ModuleType)]
    text = README.read_text(encoding="utf-8")
    documented = {alias.name
                  for chunk in text.split("```python\n")[1:]
                  for node in ast.walk(ast.parse(chunk.split("```", 1)[0]))
                  if isinstance(node, ast.ImportFrom)
                  and node.module == "jetsolve"
                  for alias in node.names}
    assert documented and documented <= set(jetsolve.__all__)
