"""The README's library example runs as written."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _library_use_block() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_use_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the example names its config relative to the root
    exec(compile(_library_use_block(), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "converged 135"
    assert len(lines) == 2
