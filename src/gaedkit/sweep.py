"""Seeded Monte-Carlo frame-error-rate sweeps with CSV output.

Each Eb/N0 point is simulated in rounds of fixed chunk layout; every chunk
owns an RNG stream keyed by (seed, point index, chunk index), and stopping
is decided only at round boundaries. Error counts are therefore identical
for any worker count, and byte-identical CSV (modulo the wall-clock column)
follows from an identical (config, seed) pair.

The decoder is built once per sweep, in the calling process, from the
caller's code and automorphism, and that built runtime is the task:
`runtime(task)` decodes one group of chunks. Each round splits its chunks
into one contiguous group per worker and maps the runtime over the groups,
with the builtin `map` for one worker and a process pool's `map` otherwise,
so every pool task carries the pickled runtime and no worker rebuilds it.
With one worker a round is one group, so BP's slowest frames cost their
last iterations once per round, not once per chunk.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from math import isfinite, sqrt

import numpy as np

from .automorphisms import GeneralizedAutomorphism
from .channel import awgn_llr_batch
from .codes import LinearCode, low_weight_dual_search
from .decoders import (BpConfig, GaedEnsemble, TannerGraph, _bp_record,
                       _check_powers, _osd_record, power_ensemble,
                       stack_redundant_pcm)
from .gf2 import _as_tuple, _check_bools, _check_count

CSV_HEADER = "ebno_db,frames,frame_errors,bit_errors,fer,ci95,elapsed_s"

# chunks per scheduling round and the frames in each chunk of round r;
# fixed constants so counts never depend on the worker count
_CHUNKS_PER_ROUND = 8
# sizes each chunk's draws and the decode slices, in frames * checks * n:
# 4096 frames of a (32, 16) code. The draw size sets the RNG draw order of
# random-codeword sweeps, so counts depend on this value.
_DECODE_CELL_BUDGET = 1 << 21
_POOL_SEED = 0


def _round_chunk_frames(round_idx: int) -> int:
    return min(8192, 256 << round_idx)


# every decoder kind a sweep runs, with its CSV label
_KINDS = {
    "bp": lambda spec: f"BP-{spec.iterations}",
    "gaed": lambda spec: f"GAED-{len(spec.powers)}-BP-{spec.iterations}",
    "rr": lambda spec: f"R-{spec.ell}-BP-{spec.iterations}",
    "osd": lambda spec: f"OSD-{spec.osd_order}",
}


@dataclass(frozen=True)
class DecoderSpec:
    """Which decoder a sweep runs, with its tuning parameters."""

    kind: str
    iterations: int = 20
    normalization: float = BpConfig.normalization
    ell: int = 3
    osd_order: int = 3
    powers: tuple[int, ...] = (0, 1, -1)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown decoder {self.kind!r}; decoder must "
                             f"be one of {', '.join(_KINDS)}")
        # BpConfig owns the rule for the BP settings
        BpConfig(self.iterations, self.normalization)
        _check_count("ell", self.ell, 1)
        _check_count("osd_order", self.osd_order, 0)
        # power_ensemble's rule; a tuple, so that the spec hashes
        object.__setattr__(self, "powers", _check_powers(self.powers))
        if not self.powers:
            raise ValueError("powers must be non-empty")
        # a repeated path ties the first on every frame and loses the tie
        if len(set(self.powers)) < len(self.powers):
            raise ValueError(f"powers must be distinct, got {self.powers!r}")

    @property
    def label(self) -> str:
        return _KINDS[self.kind](self)


@dataclass(frozen=True)
class SweepConfig:
    """Sweep grid, stopping rule, seeding and parallelism."""

    ebn0_db: tuple[float, ...]
    min_frame_errors: int = 300
    max_frames: int = 1_000_000
    seed: int = 0
    workers: int = 1
    random_codewords: bool = False

    def __post_init__(self) -> None:
        pts = tuple(float(x) for x in _as_tuple("ebn0_db", self.ebn0_db))
        if not pts:
            raise ValueError("need at least one Eb/N0 point")
        if not all(isfinite(x) for x in pts):
            raise ValueError("Eb/N0 points must be finite")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("Eb/N0 points must be strictly increasing")
        _check_count("min_frame_errors", self.min_frame_errors, 1)
        _check_count("max_frames", self.max_frames, 1)
        _check_count("seed", self.seed, 0)
        _check_count("workers", self.workers, 1)
        _check_bools(self, "random_codewords")
        object.__setattr__(self, "ebn0_db", pts)


@dataclass(frozen=True)
class FerRecord:
    """One CSV row: counts and frame-error rate at a single Eb/N0."""

    ebno_db: float
    frames: int
    frame_errors: int
    bit_errors: int
    fer: float
    ci95: float
    elapsed_s: float


class _Runtime:
    """A sweep's decoder, built once; calling it on a task decodes a group
    of chunks.

    `decode(llrs)` is a picklable batch decoder that returns a
    `DecodeOutcome` for every kind, so workers need nothing rebuilt.
    """

    def __init__(self, code: LinearCode, spec: DecoderSpec,
                 aut: GeneralizedAutomorphism | None):
        self.code = code
        cfg = BpConfig(spec.iterations, spec.normalization)
        h = code.h
        # a given automorphism must fit the code whatever the decoder kind
        if aut is not None and aut.n != code.n:
            raise ValueError("automorphism size does not match the code")
        if spec.kind == "gaed":
            if aut is None:
                raise ValueError("gaed sweeps need an automorphism")
            ens = GaedEnsemble(code, power_ensemble(aut, spec.powers))
            self.decode = partial(ens.decode_batch, cfg=cfg)
        elif spec.kind == "osd":
            # the flip-pattern search reads d; filled here, the pickled
            # code carries it, so no worker enumerates the code again
            if spec.osd_order:
                code.distance_bound()
            self.decode = partial(_osd_record, code, order=spec.osd_order)
        else:
            if spec.kind == "rr":
                pool = low_weight_dual_search(
                    code, target_count=spec.ell * (code.n - code.k) + 32,
                    seed=_POOL_SEED)
                h = stack_redundant_pcm(code, pool, spec.ell)
            self.decode = partial(_bp_record, TannerGraph.from_pcm(h), cfg=cfg)
        # frames per draw and per decode slice
        self.batch_frames = max(
            32, _DECODE_CELL_BUDGET // max(1, h.rows * code.n))

    def __call__(self, task) -> tuple[int, int, int]:
        """Decode one group of chunks: (frames, frame_errors, bit_errors)."""
        frame_errors = bit_errors = 0
        for sent, llrs in self._slices(task):
            diff = self.decode(llrs).hard_bits != sent
            frame_errors += int(diff.any(axis=1).sum())
            bit_errors += int(diff.sum())
        return sum(frames for _, frames in task[-1]), frame_errors, bit_errors

    def _slices(self, task):
        """Yield a group's (sent, llrs) in decode slices of at most
        batch_frames frames, refilling the same two buffers in place.

        Each chunk draws from its own stream, keyed by (seed, point index,
        chunk index), batch_frames frames at a time, exactly as it would
        alone; a slice is yielded when the next draw would not fit."""
        seed, random_codewords, point_idx, ebn0_db, chunks = task
        n = self.code.n
        size = min(self.batch_frames, sum(frames for _, frames in chunks))
        sent = np.empty((size, n), dtype=np.uint8)
        llrs = np.empty((size, n))
        fill = 0
        for chunk_idx, frames in chunks:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=(seed, point_idx, chunk_idx)))
            for left in range(frames, 0, -self.batch_frames):
                b = min(self.batch_frames, left)
                if fill + b > size:
                    yield sent[:fill], llrs[:fill]
                    fill = 0
                part = slice(fill, fill + b)
                if random_codewords:
                    sent[part] = self.code.encode(rng.integers(
                        0, 2, size=(b, self.code.k), dtype=np.uint8))
                else:
                    sent[part] = 0
                llrs[part] = awgn_llr_batch(sent[part], ebn0_db,
                                            self.code.rate, rng)
                fill += b
        yield sent[:fill], llrs[:fill]


def run_sweep(code: LinearCode, spec: DecoderSpec, cfg: SweepConfig, *,
              aut: GeneralizedAutomorphism | None = None,
              timer=time.perf_counter) -> list[FerRecord]:
    """Frame-error-rate estimates per Eb/N0 point.

    Each point accumulates chunk rounds until min_frame_errors errors or
    max_frames frames are reached; counts are invariant to workers.
    """
    runtime = _Runtime(code, spec, aut)
    with ExitStack() as stack:
        run = map
        if cfg.workers > 1:
            # imported here: it loads multiprocessing, which only pools need
            from concurrent.futures import ProcessPoolExecutor

            # a fork pool starts all workers at once; a round's tasks suffice
            run = stack.enter_context(ProcessPoolExecutor(
                max_workers=min(cfg.workers, _CHUNKS_PER_ROUND))).map
        records = []
        for point_idx, ebn0 in enumerate(cfg.ebn0_db):
            start = timer()
            frames = frame_errors = bit_errors = 0
            round_idx = chunk_idx = 0
            while (frame_errors < cfg.min_frame_errors
                   and frames < cfg.max_frames):
                budget = cfg.max_frames - frames
                sizes = []
                for _ in range(_CHUNKS_PER_ROUND):
                    s = min(_round_chunk_frames(round_idx), budget)
                    if s <= 0:
                        break
                    sizes.append(s)
                    budget -= s
                chunks = [(chunk_idx + i, s) for i, s in enumerate(sizes)]
                # one group per worker; each group is one task
                groups = min(cfg.workers, len(chunks))
                tasks = [(cfg.seed, cfg.random_codewords, point_idx, ebn0,
                          chunks[g * len(chunks) // groups:
                                 (g + 1) * len(chunks) // groups])
                         for g in range(groups)]
                chunk_idx += len(sizes)
                round_idx += 1
                for f, e, b in run(runtime, tasks):
                    frames += f
                    frame_errors += e
                    bit_errors += b
            fer = frame_errors / frames
            ci = 1.96 * sqrt(fer * (1.0 - fer) / frames)
            records.append(FerRecord(float(ebn0), frames, frame_errors,
                                     bit_errors, fer, ci, timer() - start))
    return records


def format_records(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(f"{r.ebno_db:.6g},{r.frames},{r.frame_errors},"
                     f"{r.bit_errors},{r.fer:.6g},{r.ci95:.6g},"
                     f"{r.elapsed_s:.6g}")
    return "\n".join(lines) + "\n"


def write_csv(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_records(records))
