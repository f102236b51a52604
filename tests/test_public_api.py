"""The README's imports and the package's `__all__` agree."""

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
