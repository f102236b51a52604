"""numpy is the only runtime dependency: in the imports and in the metadata."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted((ROOT / "src" / "gaedkit").glob("*.py"))
    assert sources
    outside = [f"{path.name}: {name}" for path in sources
               for name in absolute_imports(path)
               if name.partition(".")[0] not in ALLOWED]
    assert not outside, outside


def test_declared_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    names = [re.match(r"[A-Za-z0-9_.-]+", req).group()
             for req in meta["project"]["dependencies"]]
    assert names == ["numpy"]
