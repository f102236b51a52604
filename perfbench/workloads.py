"""Benchmark workloads for gaedkit: inputs, operations and output checks.

Each workload builds its inputs once (the set-up that `setup_s` times),
then exposes `op(i)`, the i-th timed user-level operation, and
`check(i, out)`, which returns the problems found in that operation's
output. Operations are a pure function of (workload seed, i), so a run
can be repeated exactly and the pinned outputs in pins.json apply.

Run as a script, `python3 perfbench/workloads.py <workload> <seed>` only
builds the inputs and exits; run.py times such child processes to measure
set-up from process start.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from functools import partial
from pathlib import Path

# OSD's float matmul would otherwise start BLAS threads beside the loop
# that drives it; pinned before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import gaedkit  # noqa: E402
from gaedkit import cli  # noqa: E402

if not Path(gaedkit.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"gaedkit was imported from {gaedkit.__file__}, "
                      f"not from {ROOT / 'src'}")

PINS_FILE = HERE / "pins.json"
DEFAULT_SEED = 1
# sweep call i uses sweep seed 1000*seed + i % SWEEP_PERIOD; pins.json
# holds the counts of one period at the default seed
SWEEP_PERIOD = 64


class SweepWorkload:
    """Fixed-frame `run_sweep` calls with one decoder at one Eb/N0.

    `min_frame_errors` is above reach, so every call decodes exactly
    `frames` frames.
    """

    pass_len = 1
    pinned_at_every_seed = False

    def __init__(self, seed: int, spec, ebn0_db: float, frames: int,
                 trace_ops: int):
        self.seed = seed
        self.spec = spec
        self.ebn0_db = ebn0_db
        self.frames = frames
        self.trace_ops = trace_ops
        self.aut = None

    @property
    def label(self) -> str:
        return self.spec.label

    def op(self, i: int):
        cfg = gaedkit.SweepConfig(
            (self.ebn0_db,), min_frame_errors=self.frames + 1,
            max_frames=self.frames,
            seed=1000 * self.seed + i % SWEEP_PERIOD, workers=1)
        rec = gaedkit.run_sweep(self.code, self.spec, cfg, aut=self.aut)[0]
        return [rec.frames, rec.frame_errors, rec.bit_errors]

    def warmup(self):
        return self.op(0)

    def check(self, i: int | None, out, pins) -> list[str]:
        problems = []
        if out[0] != self.frames:
            problems.append(f"decoded {out[0]} frames, requested {self.frames}")
        if pins is not None and i is not None:
            want = pins[i % SWEEP_PERIOD]
            if out != want:
                problems.append(f"(frames, frame_errors, bit_errors) = {out}, "
                                f"pinned {want}")
        return problems

    def named_metrics(self, op_s: float) -> dict:
        return {f"{self.label}.frames_per_s":
                {"value": self.frames / op_s, "unit": "frames/s"}}

    def extra_checks(self) -> list[list[str]]:
        return []

    def info(self) -> dict:
        return {"code_n": self.code.n, "code_k": self.code.k,
                "edges": self.code.h.weight, "decoder": self.label,
                "ebn0_db": self.ebn0_db, "frames_per_call": self.frames}


class Sweep32(SweepWorkload):
    """The acceptance (32,16) code with its designed automorphism."""

    def setup(self, tmp: Path) -> None:
        res = gaedkit.construct_code_with_automorphism(32, 16, 10, seed=6)
        self.code, self.aut = res.code, res.aut

    def extra_checks(self) -> list[list[str]]:
        if self.spec.kind != "osd":
            return []
        # the sweep only reports counts, so check OSD's codeword
        # guarantee directly on frames drawn from the workload seed
        rng = np.random.default_rng(self.seed)
        llrs = gaedkit.awgn_llr_batch(np.zeros((32, self.code.n)),
                                      self.ebn0_db, self.code.rate, rng)
        h = self.code.h_numpy().astype(np.int64)
        out = []
        for row in llrs:
            bits = gaedkit.osd_decode(self.code, gaedkit.LlrVector(row),
                                      self.spec.osd_order).hard_bits
            out.append([] if not ((h @ bits) % 2).any()
                       else ["OSD output is not a codeword"])
        return out


def regular_ldpc_pcm(n: int, wc: int, wr: int, rng: np.random.Generator):
    """Gallager (wc, wr) ensemble: wc bands, each a random column
    permutation cut into rows of wr columns (the last rows of a band take
    wr - 1 when wr does not divide n). Every band sums to the all-ones row,
    so dependent rows are dropped before the matrix is returned.
    """
    per_band = -(-n // wr)
    sizes = [n // per_band + (r < n % per_band) for r in range(per_band)]
    rows = []
    for _ in range(wc):
        perm = rng.permutation(n).tolist()
        start = 0
        for size in sizes:
            rows.append(sum(1 << j for j in perm[start:start + size]))
            start += size
    pivots: dict[int, int] = {}
    kept = []
    for row in rows:
        v = row
        while v:
            lead = v.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = v
                kept.append(row)
                break
            v ^= pivots[lead]
    return gaedkit.BitMatrix(kept, n)


class Ldpc256(SweepWorkload):
    """A seeded (3,6) Gallager code of length 256, supplied as alist."""

    def setup(self, tmp: Path) -> None:
        h = regular_ldpc_pcm(256, 3, 6, np.random.default_rng(0))
        path = tmp / "ldpc256.alist"
        gaedkit.write_alist(h, path)
        self.code = gaedkit.LinearCode.from_pcm(gaedkit.read_alist(path))


class ConstructWorkload:
    """`gaedkit construct`, `verify` and `dmin` through the in-process CLI.

    The construction seeds are a fixed pool, visited in an order rotated
    by the workload seed, and a run times whole passes over the pool. The
    cost of one construction varies about sevenfold with its seed (block
    orderings that fail, coordinates dropped), so a seed-drawn list of the
    size one run can afford would add that variation to the spread
    between runs, on top of the machine's own.
    """

    # the pool is fixed, so its digests hold at every workload seed
    pinned_at_every_seed = True

    def __init__(self, seed: int, n: int, k: int, delta: int, pool: int,
                 trace_ops: int):
        self.seed = seed
        self.n, self.k, self.delta = n, k, delta
        self.pool = list(range(pool))
        self.pass_len = pool
        self.trace_ops = trace_ops
        self.label = f"c{n}x{k}"

    def setup(self, tmp: Path) -> None:
        self.tmp = tmp

    def job(self, n: int, k: int, delta: int, cseed: int):
        out_dir = self.tmp / f"job-{n}-{k}-{cseed}"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc_c = cli.main(["construct", "-n", str(n), "-k", str(k),
                             "--delta", str(delta), "--seed", str(cseed),
                             "--out", str(out_dir)])
            rc_v = cli.main(["verify", str(out_dir)])
            rc_d = cli.main(["dmin", str(out_dir / "H.txt")])
        return {"cseed": cseed, "rc": [rc_c, rc_v, rc_d],
                "stdout": buf.getvalue(), "dir": out_dir}

    def op(self, i: int):
        return self.job(self.n, self.k, self.delta,
                         self.pool[(self.seed + i) % len(self.pool)])

    def warmup(self):
        return self.job(32, 16, 10, 6)

    def check(self, i: int | None, out, pins) -> list[str]:
        problems = []
        rc_c, rc_v, rc_d = out["rc"]
        lines = out["stdout"].splitlines()
        passes = sum(ln.startswith("PASS ") for ln in lines)
        if rc_c != 0:
            problems.append(f"construct exited {rc_c}")
        if rc_v != 0 or passes != 12:
            problems.append(f"verify exited {rc_v} with {passes} PASS lines")
        if rc_d != 0 or not lines or not lines[-1].isdigit():
            problems.append(f"dmin exited {rc_d}")
        if pins is not None and i is not None and not problems:
            got = self.digest(out)
            want = pins[(self.seed + i) % len(self.pool)]
            if got != want:
                problems.append(f"job {got} differs from pinned {want}")
        shutil.rmtree(out["dir"], ignore_errors=True)
        return problems

    def digest(self, out) -> dict:
        """What pins.json holds for one job."""
        return {"cseed": out["cseed"],
                "H.txt": _sha256(out["dir"] / "H.txt"),
                "T.txt": _sha256(out["dir"] / "T.txt"),
                "dmin": int(out["stdout"].splitlines()[-1])}

    def named_metrics(self, op_s: float) -> dict:
        return {f"{self.label}.s_per_code": {"value": op_s, "unit": "s"}}

    def extra_checks(self) -> list[list[str]]:
        return []

    def info(self) -> dict:
        return {"n": self.n, "k": self.k, "delta": self.delta,
                "construction_seeds": self.pool}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _sweep32(spec, frames, trace_ops):
    return partial(Sweep32, spec=spec, ebn0_db=4.0, frames=frames,
                   trace_ops=trace_ops)


# name -> factory(seed). Calls are sized to a few tenths of a second, so a
# run's median rests on dozens of them; trace_ops sizes each traced list
# to a few seconds.
WORKLOADS = {
    "sweep32-bp30": _sweep32(gaedkit.DecoderSpec("bp", iterations=30),
                             2048, 32),
    "sweep32-gaed": _sweep32(gaedkit.DecoderSpec("gaed", iterations=10),
                             2048, 12),
    "sweep32-rr": _sweep32(gaedkit.DecoderSpec("rr", iterations=10, ell=3),
                           2048, 16),
    "sweep32-osd": _sweep32(gaedkit.DecoderSpec("osd", osd_order=3),
                            512, 20),
    "ldpc256": partial(Ldpc256, spec=gaedkit.DecoderSpec("bp", iterations=20),
                       ebn0_db=2.5, frames=64, trace_ops=10),
    "construct-c40x20": partial(ConstructWorkload, n=40, k=20, delta=10,
                                pool=3, trace_ops=3),
    "construct-c64x48": partial(ConstructWorkload, n=64, k=48, delta=16,
                                pool=40, trace_ops=40),
}


def make(name: str, seed: int, tmp: Path):
    """Build workload `name` for `seed`; this is the timed set-up."""
    wl = WORKLOADS[name](seed)
    wl.setup(tmp)
    return wl


def load_pins(name: str, wl):
    """Pinned outputs for this run, or None when none apply to its seed."""
    if wl.seed != DEFAULT_SEED and not wl.pinned_at_every_seed:
        return None
    return json.loads(PINS_FILE.read_text())[name]


if __name__ == "__main__":
    import tempfile

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        make(sys.argv[1], int(sys.argv[2]), Path(tmp))
