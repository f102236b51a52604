"""The benchmark reaches gaedkit by name; every name it uses must exist.

A deleted or renamed function would otherwise show only when the traced
benchmark run fails, since no other test imports `perfbench`.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import gaedkit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    for module, attr, _, _ in load_tracer().TARGETS:
        obj = importlib.import_module(f"gaedkit.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"gaedkit.{module}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"gaedkit.{module}.{attr}"


def test_workload_names_exist():
    # read as text: importing workloads.py sets thread-count environment
    # variables for the whole process
    text = (PERFBENCH / "workloads.py").read_text()
    names = set(re.findall(r"\bgaedkit\.([A-Za-z_]\w*)", text))
    assert names
    missing = sorted(n for n in names if not hasattr(gaedkit, n))
    assert not missing, missing
