"""numpy is the only runtime dependency, in the imports and in the
metadata, no module keeps hidden state behind a `global` statement, the
modules import each other without a cycle, and importing the package
loads no process-pool machinery."""

import ast
import os
import re
import subprocess
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


def package_imports():
    """Module stem -> the package modules it imports, anywhere in its body."""
    graph = {path.stem: set()
             for path in (ROOT / "src" / "gaedkit").glob("*.py")}
    for name, node in package_nodes():
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            base = node.module
        elif (node.module or "").partition(".")[0] == "gaedkit":
            base = node.module.partition(".")[2]
        else:
            continue
        targets = ([base.partition(".")[0]] if base
                   else [alias.name for alias in node.names])
        graph[name[:-3]] |= {t for t in targets if t in graph}
    return graph


def test_package_import_graph_has_no_cycle():
    graph = package_imports()
    done: set[str] = set()

    def visit(module, path):
        assert module not in path, " -> ".join(path + [module])
        if module not in done:
            for dep in sorted(graph[module]):
                visit(dep, path + [module])
            done.add(module)

    for module in sorted(graph):
        visit(module, [])


def test_gf2_is_the_bottom_layer():
    # gf2poly builds on gf2's span tracker, so gf2 may import nothing back
    assert package_imports()["gf2"] == set()


def test_declared_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    names = [re.match(r"[A-Za-z0-9_.-]+", req).group()
             for req in meta["project"]["dependencies"]]
    assert names == ["numpy"]


def test_import_loads_no_multiprocessing():
    # only a sweep with workers > 1 needs a process pool; loading
    # multiprocessing at import would slow the start of every process
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = "import sys, gaedkit; print(sorted(m for m in sys.modules " \
            "if m.partition('.')[0] == 'multiprocessing'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"
