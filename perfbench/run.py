"""gaedkit benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload sweep32-bp30 --seed 1 --seconds 12 --trace 0

With --trace 0 it times user-level operations with no instrumentation and
prints the end-to-end metrics; with --trace 1 it runs a fixed list of
operations twice, untraced and then with every layer wrapped, and prints
the per-layer metrics. Both modes check every output against the
invariants and, where pinned, the exact outputs in pins.json. The last
line of standard output is one JSON object; a run record (and, traced,
the spans) goes to perfbench/out/. Metric names and units come from
BENCHMARK.json at the repository root. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3


class Checks:
    """Counts checked operations and keeps the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {'; '.join(problems)}")


def _run_op(wl, i, pins, checks: Checks, what: str) -> float:
    """Time operation i (None: the warm-up) and check its output; an
    exception in either counts as a failed operation."""
    t0 = time.perf_counter()
    elapsed = None
    try:
        out = wl.warmup() if i is None else wl.op(i)
        elapsed = time.perf_counter() - t0
        problems = wl.check(i, out, pins)
    except Exception:
        problems = [traceback.format_exc(limit=3)]
    checks.add(what, problems)
    return elapsed if elapsed is not None else time.perf_counter() - t0


def _setup_probe_s(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports gaedkit, builds the
    workload's inputs and exits."""
    t0 = time.perf_counter()
    # no timeout: with one, Popen.wait polls and rounds up to 50 ms steps
    subprocess.run([sys.executable, str(HERE / "workloads.py"), workload,
                    str(seed)], check=True, cwd=ROOT)
    return time.perf_counter() - t0


def _environment(seed: int, thread_vars) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or None
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in thread_vars},
            "seed": seed}


def _quantile(values: list[float], q: float) -> float:
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def reference_kernel():
    """A fixed mix of interpreter loops and small-array numpy calls, the two
    kinds of work gaedkit's hot paths do. Its time tracks the machine's own
    speed, which on a shared 2-vCPU machine drifts by 10-40% between runs
    while gaedkit's work stays the same."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((64, 32))

    def time_s() -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(5000):
            acc += i * i
        for _ in range(100):
            np.where(a > 0, a, 0.0).sum(axis=1)
        return time.perf_counter() - t0

    return time_s


def measure(wl, pins, seconds: float, checks: Checks):
    """Per-operation times of a closed loop that runs for `seconds`, in
    whole passes over the workload's operation cycle, and the reference
    kernel's times, three samples before each operation."""
    reference = reference_kernel()
    _run_op(wl, None, pins, checks, "warm-up")
    times, refs = [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i % wl.pass_len:
        refs.extend(reference() for _ in range(3))
        times.append(_run_op(wl, i, pins, checks, f"op {i}"))
        i += 1
    return times, refs


def measure_traced(wl, pins, checks: Checks):
    """The workload's fixed trace list, each operation run untraced and then
    traced, so that both sides of the overhead share see the same machine
    state."""
    from tracer import Tracer

    _run_op(wl, None, pins, checks, "warm-up")
    tracer = Tracer()
    plain = traced = 0.0
    for i in range(wl.trace_ops):
        plain += _run_op(wl, i, pins, checks, f"op {i}")
        tracer.install()
        try:
            traced += _run_op(wl, i, pins, checks, f"traced op {i}")
        finally:
            tracer.uninstall()
    layers = tracer.layer_metrics()
    layers["trace_overhead_share"] = traced / plain - 1.0
    return layers, tracer.spans


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="measuring time of an untraced run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")

    try:
        import workloads
    except ImportError as e:
        print(f"error: cannot import gaedkit from the checkout: {e}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from "
                f"{', '.join(workloads.WORKLOADS)}")

    workloads.OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=workloads.OUT))
    try:
        return _run(args, spec, workloads, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, spec, workloads, tmp: Path) -> int:
    checks = Checks()
    wl = workloads.make(args.workload, args.seed, tmp)
    pins = workloads.load_pins(args.workload, wl)
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "env": _environment(args.seed, workloads.THREAD_VARS),
              "inputs": wl.info(), "pinned_outputs_checked": pins is not None}
    if args.trace:
        values, spans = measure_traced(wl, pins, checks)
        wanted = spec["per_layer"]
        record["trace_ops"] = wl.trace_ops
    else:
        setup = [_setup_probe_s(args.workload, args.seed)
                 for _ in range(SETUP_PROBES)]
        times, refs = measure(wl, pins, args.seconds, checks)
        op_s = statistics.median(times)
        ref_s = statistics.median(refs)
        values = {"op_ref": op_s / ref_s, "op_s": op_s, "ref_s": ref_s,
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb":
                      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        wanted = spec["end_to_end"]
        record["ops"] = {"count": len(times), "median_s": op_s,
                         "mean_s": statistics.fmean(times),
                         "reference_median_s": ref_s,
                         "reference_samples": len(refs),
                         "q1_s": _quantile(times, 0.25),
                         "q3_s": _quantile(times, 0.75),
                         "max_s": max(times)}
        if len(times) >= 20:
            level = 1 - 10 / len(times)
            record["ops"][f"p{100 * level:.0f}_s"] = _quantile(times, level)
        record["named_metrics"] = wl.named_metrics(op_s)
        record["setup_probes_s"] = setup
    try:
        for problems in wl.extra_checks():
            checks.add("extra check", problems)
    except Exception:
        checks.add("extra check", [traceback.format_exc(limit=3)])

    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    record["result"] = result
    record["failures"] = checks.messages

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (workloads.OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (workloads.OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": spans}))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"inputs {json.dumps(record['inputs'])}")
    print(f"env {json.dumps(record['env'])}")
    shown = dict(metrics)
    if not args.trace:
        shown["op_s"] = {"value": values["op_s"], "unit": "s"}
        shown["ref_s"] = {"value": values["ref_s"], "unit": "s"}
    shown.update(record.get("named_metrics", {}))
    for name, m in shown.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_ops_share = {checks.failed}/{checks.attempted}")
    for msg in checks.messages:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
