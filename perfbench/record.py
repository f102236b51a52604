"""Run every workload once and append the results to perfbench/BENCH.json.

    python3 perfbench/record.py                 # end-to-end, trace off
    python3 perfbench/record.py --trace 1       # per-layer, traced

Each workload runs in its own process through run.py, which prints every
metric by name with its unit and checks every output. BENCH.json is the
committed performance history: a change that claims a speed-up appends a
run at its parent and one at itself, and quotes both.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = HERE / "BENCH.json"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    entry = {"date": datetime.datetime.now(datetime.timezone.utc)
             .isoformat(timespec="seconds"),
             "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "env": None, "workloads": {}}
    ok = True
    for name in names:
        path = HERE / "out" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        ok &= proc.returncode == 0
        if not path.exists():
            continue
        record = json.loads(path.read_text())
        entry["env"] = record.pop("env")
        entry["workloads"][name] = record
    history = json.loads(BENCH.read_text()) if BENCH.exists() else []
    history.append(entry)
    BENCH.write_text(json.dumps(history, indent=1) + "\n")
    print(f"appended run {len(history)} to {BENCH.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
