"""numpy is the only runtime dependency, in the imports and in the
metadata, and no module keeps hidden state behind a `global` statement."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def package_nodes():
    """(file name, node) for every syntax node of every package module."""
    sources = sorted((ROOT / "src" / "gaedkit").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_package_imports_only_stdlib_and_numpy():
    outside = []
    for name, node in package_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        outside += [f"{name}: {m}" for m in modules
                    if m.partition(".")[0] not in ALLOWED]
    assert not outside, outside


def test_package_has_no_global_statements():
    # state set through `global` travels neither with pickled objects nor
    # into worker processes, so results would depend on where code runs
    found = [f"{name}:{node.lineno}: global {', '.join(node.names)}"
             for name, node in package_nodes() if isinstance(node, ast.Global)]
    assert not found, found


def test_declared_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    names = [re.match(r"[A-Za-z0-9_.-]+", req).group()
             for req in meta["project"]["dependencies"]]
    assert names == ["numpy"]
