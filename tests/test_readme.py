"""The README's library examples run as written."""

from pathlib import Path

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
