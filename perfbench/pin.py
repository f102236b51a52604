"""Regenerate pins.json: the exact outputs the benchmark checks against.

    python3 perfbench/pin.py

Sweep counts are recorded for one period of calls at the default seed,
construction digests for every job of each fixed pool. Counts are a pure
function of the seed, so pins.json changes only when gaedkit's outputs do,
which is a bug unless a change says otherwise.
"""

import json
import tempfile
from pathlib import Path

import workloads


def main() -> None:
    pins = {}
    workloads.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.OUT) as tmp:
        for name in workloads.WORKLOADS:
            wl = workloads.make(name, workloads.DEFAULT_SEED, Path(tmp))
            if isinstance(wl, workloads.ConstructWorkload):
                pins[name] = [
                    wl.digest(wl.job(wl.n, wl.k, wl.delta, cseed))
                    for cseed in wl.pool]
            else:
                pins[name] = [wl.op(i) for i in range(workloads.SWEEP_PERIOD)]
            print(name, "pinned", flush=True)
    workloads.PINS_FILE.write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
