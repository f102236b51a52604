"""The README's imports and the package's `__all__` agree, and its quick
start runs."""

import re
from pathlib import Path

import gaedkit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_imports_are_exported():
    blocks = re.findall(r"from gaedkit import \(([^)]*)\)", README.read_text())
    assert blocks
    names = {name for block in blocks for name in re.findall(r"\w+", block)}
    assert names and names <= set(gaedkit.__all__), \
        sorted(names - set(gaedkit.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in gaedkit.__all__
               if not hasattr(gaedkit, name)]
    assert not missing, missing
    assert len(set(gaedkit.__all__)) == len(gaedkit.__all__)


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = (tmp_path / "gaed.csv").read_text().splitlines()
    assert lines[0].startswith("ebno_db,frames,frame_errors")
    assert len(lines) == 4
