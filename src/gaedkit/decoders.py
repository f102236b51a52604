"""Decoders: box-plus preprocessing, min-sum BP, ensembles, OSD, ML.

All iterative decoding runs through one batched kernel over the edge lists
of a TannerGraph, built once per parity-check matrix: each iteration costs
the number of edges, not checks * n, and a single frame and a batch member
follow bit-identical arithmetic. Ensemble paths preprocess the channel LLRs
through an automorphism (box-plus per output coordinate), decode
independently, map the hard decisions back through the inverse matrix, and
keep the most likely candidate. Paths after the first run only on frames
whose first candidate is not certified maximum-likelihood by the test of
Taipale and Pursley (IEEE Trans. IT, 1991); the picks are those of running
every path on every frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import NamedTuple

import numpy as np

from .automorphisms import GeneralizedAutomorphism, verify_automorphism
from .channel import LLR_CLAMP, LlrVector, check_llr_batch
from .codes import (DualWordPool, LinearCode, _correlation, certified_ml,
                    check_pool)
from .gf2 import (BitMatrix, _as_tuple, _check_count, _is_integer,
                  independent_rows, rank)
from .osd import osd_decode_batch


def _pair_box_plus(a, b):
    # Exact identity for 2*atanh(tanh(a/2)*tanh(b/2)), stable for large inputs.
    m = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
    return m + np.log1p(np.exp(-np.abs(a + b))) - np.log1p(np.exp(-np.abs(a - b)))


def box_plus(llrs) -> float:
    """LLR of the modulo-2 sum of independent bits with the given LLRs."""
    arr = np.asarray(llrs, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("box_plus needs a non-empty sequence of LLRs")
    acc = arr[0]
    for x in arr[1:]:
        acc = _pair_box_plus(acc, x)
    return float(np.clip(acc, -LLR_CLAMP, LLR_CLAMP))


class PreprocessPlan:
    """Box-plus schedule for one matrix, rows grouped by degree.

    Output coordinate j combines the input LLRs selected by row j. Rows of
    degree 1 copy their input bit-for-bit, as the final clip leaves checked
    LLRs (-0.0 included) unchanged, so a permutation matrix yields an exact
    coordinate permutation.
    """

    def __init__(self, t: BitMatrix):
        if t.rows != t.cols:
            raise ValueError("preprocessing matrix must be square")
        self.n = t.rows
        mask = t.to_numpy().astype(bool)
        deg = mask.sum(axis=1)
        if not deg.all():
            j = int(np.argmin(deg))
            raise ValueError(f"row {j} of the preprocessing matrix is zero")
        # groups by ascending degree; np.nonzero walks each group's rows in
        # ascending order and each row's columns in ascending order
        self.groups = []
        for d in sorted(set(deg.tolist())):
            rows = np.flatnonzero(deg == d)
            self.groups.append(
                (rows, np.nonzero(mask[rows])[1].reshape(len(rows), d)))

    def apply(self, llrs: np.ndarray) -> np.ndarray:
        """Transform a (frames, n) LLR array; pure function of its input."""
        llrs = check_llr_batch(llrs, self.n)
        out = np.empty_like(llrs)
        for rows, sels in self.groups:
            acc = llrs[:, sels[:, 0]]
            for col in range(1, sels.shape[1]):
                acc = _pair_box_plus(acc, llrs[:, sels[:, col]])
            out[:, rows] = np.clip(acc, -LLR_CLAMP, LLR_CLAMP, out=acc)
            # freed before the next group's gather: two live (frames, rows)
            # temporaries made glibc trim and re-grow its heap, 1.5x slower
            del acc
        return out


@dataclass(frozen=True)
class BpConfig:
    """Normalized min-sum settings; flooding is the only schedule."""

    iterations: int
    normalization: float = 0.75

    def __post_init__(self) -> None:
        _check_count("iterations", self.iterations, 1)
        # a string or None would fail the comparison with a bare TypeError,
        # and True would pass it as 1.0
        norm = self.normalization
        if isinstance(norm, bool) or not isinstance(norm, Real):
            raise ValueError(f"normalization must be a number, got {norm!r}")
        if not 0.0 < norm <= 1.0:
            raise ValueError("normalization must be in (0, 1]")


class DecodeOutcome(NamedTuple):
    """Every decoder kind's result for a batch: (frames, n) uint8 hard bits
    and, per frame, codeword validity (bool), BP iterations (int64), the
    winning ensemble path (intp) and the float64 correlation with the
    LLRs. Plain BP decodes on path 0; OSD finds codewords in 0 iterations."""

    hard_bits: np.ndarray
    is_codeword: np.ndarray
    iterations_used: np.ndarray
    path_index: np.ndarray
    correlation: np.ndarray


@dataclass(frozen=True, eq=False)
class TannerGraph:
    """Edge lists of a parity-check matrix, in the layout the kernel reads.

    Row c of `check_vars` holds check c's variables in ascending column
    order, padded to the largest row degree with the phantom variable n.
    Row v of `var_slots` holds variable v's edges as flat indices into the
    (checks, width) slot grid, in ascending check order, padded with
    `checks * width`, one past the grid.
    """

    n: int
    check_vars: np.ndarray
    var_slots: np.ndarray

    @classmethod
    def from_pcm(cls, h: BitMatrix) -> "TannerGraph":
        if h.rows < 1 or h.cols < 1:
            raise ValueError("empty Tanner graph")
        mask = h.to_numpy().astype(bool)
        row_deg = mask.sum(axis=1)
        if not row_deg.all():
            raise ValueError("parity-check matrix has an empty row")
        checks, n = mask.shape
        width = int(row_deg.max())
        valid = np.arange(width) < row_deg[:, None]
        rows, cols = np.nonzero(mask)       # row-major: ascending columns
        check_vars = np.full((checks, width), n, dtype=np.intp)
        check_vars[valid] = cols
        col_deg = mask.sum(axis=0)
        by_var = np.lexsort((rows, cols))   # per column, ascending checks
        var_slots = np.full((n, int(col_deg.max())), checks * width,
                            dtype=np.intp)
        var_slots[np.arange(var_slots.shape[1]) < col_deg[:, None]] = \
            np.flatnonzero(valid)[by_var]
        for a in (check_vars, var_slots):
            a.flags.writeable = False
        return cls(n, check_vars, var_slots)


def _live_cap(slots: int) -> int:
    """Most frames BP keeps in flight on a graph of `slots` message slots.

    Each (checks, width, frames) message array then holds about 16k values;
    the floor keeps a 64-frame batch of a long code in one pass."""
    return max(64, (1 << 14) // slots)


def bp_min_sum_batch(graph: TannerGraph, llrs: np.ndarray, cfg: BpConfig
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flooding normalized min-sum over the edges of a Tanner graph.

    Returns (hard_bits, is_codeword, iterations_used) arrays over the batch.
    A frame leaves at its first iteration whose hard decision is a
    codeword, or after cfg.iterations, reporting its final state.

    At most `_live_cap` frames are in flight. Frames enter in input order
    as live ones leave, each with its own iteration count, so a batch pays
    for its slowest frames' last iterations once, not once per cap-sized
    part. Every step is elementwise per frame or reduces within a frame,
    so a frame decodes bit for bit alike in any batch.

    Messages live on the graph's (checks, width) slot grid with frames on
    the last axis, so each step costs the number of slots, not checks * n.
    Each variable adds its check messages to +0.0 one slot at a time in
    ascending check order: bit for bit the sequential sum over all checks
    of a dense (checks, n) layout that holds zeros off the edges.
    """
    llrs = check_llr_batch(llrs, graph.n)
    n_frames, n = llrs.shape
    out_hard = np.empty((n_frames, n), dtype=np.uint8)
    out_valid = np.empty(n_frames, dtype=bool)
    out_iters = np.empty(n_frames, dtype=np.int64)
    check_vars, var_slots = graph.check_vars, graph.var_slots
    checks, width = check_vars.shape
    slots = checks * width
    # the live set: input rows, iterations run, channel columns and the
    # variable-to-check messages of the next step
    idx = np.empty(0, dtype=np.intp)
    its = np.empty(0, dtype=np.int64)
    chan = np.empty((n + 1, 0))
    v_msg = np.empty((checks, width, 0))
    admitted = 0
    while True:
        take = min(_live_cap(slots) - idx.size, n_frames - admitted)
        if take > 0:
            # Row n is the phantom variable that padding slots read. Its
            # LLR is +inf, so its messages are positive and its hard
            # decision is 0. Its magnitude (+inf, then +LLR_CLAMP once
            # clipped) is never below a real message's, so it changes only
            # the empty "other" set of a degree-1 check, whose message
            # saturates at LLR_CLAMP either way.
            new = np.concatenate((llrs[admitted:admitted + take].T,
                                  np.full((1, take), np.inf)))
            idx = np.concatenate((idx, np.arange(admitted, admitted + take)))
            its = np.concatenate((its, np.zeros(take, dtype=np.int64)))
            chan = np.concatenate((chan, new), axis=1)
            v_msg = np.concatenate((v_msg, new[check_vars]), axis=2)
            admitted += take
        if not idx.size:
            break
        its += 1
        mags = np.abs(v_msg)
        min1 = mags.min(axis=1)
        at_min = mags == min1[:, None]
        # the minimum over the other slots is min2 on a slot holding min1
        # and min1 elsewhere; on a tie for min1, min2 equals min1. Raising
        # min1's slots to at least LLR_CLAMP moves min2 only above the clamp.
        ties = at_min.sum(axis=1) > 1
        np.maximum(mags, at_min * LLR_CLAMP, out=mags)
        min2 = np.where(ties, min1, mags.min(axis=1))
        # clamp and normalize per check: the selection below only copies
        min1 = np.minimum(min1, LLR_CLAMP) * cfg.normalization
        min2 = np.minimum(min2, LLR_CLAMP) * cfg.normalization
        # row `slots` is the zero that padded variable slots read
        c_flat = np.empty((slots + 1, idx.size))
        c_flat[slots] = 0.0
        c_msg = c_flat[:slots].reshape(checks, width, -1)
        # at_min * min2 is min2 or +0.0, so the maximum selects exactly. The
        # product of the other signs is the slot's own sign bit (copysign
        # reads it as np.signbit does, -0.0 included), negated exactly by
        # -1.0 on a check with an odd number of negative messages.
        np.copysign(np.maximum(min1[:, None], at_min * min2[:, None]), v_msg,
                    out=c_msg)
        parity = np.logical_xor.reduce(np.signbit(v_msg), axis=1)
        c_msg *= np.where(parity, -1.0, 1.0)[:, None]
        acc = np.zeros((n, idx.size))
        for col in var_slots.T:
            acc += c_flat[col]
        total = chan.copy()
        total[:n] += acc
        hard = total < 0.0
        valid = ~np.logical_xor.reduce(hard[check_vars], axis=1).any(axis=0)
        done = (its == cfg.iterations) | valid
        if done.any():
            gone = idx[done]
            out_hard[gone] = hard[:n, done].T
            out_valid[gone] = valid[done]
            out_iters[gone] = its[done]
            live = ~done
            idx, its, chan = idx[live], its[live], chan[:, live]
            total, c_msg = total[:, live], c_msg[:, :, live]
        v_msg = total[check_vars]
        v_msg -= c_msg
        np.minimum(v_msg, LLR_CLAMP, out=v_msg)  # np.clip, minus its wrapper
        np.maximum(v_msg, -LLR_CLAMP, out=v_msg)
    return out_hard, out_valid, out_iters


def _bp_record(graph: TannerGraph, llrs, cfg: BpConfig) -> DecodeOutcome:
    """`bp_min_sum_batch` as a `DecodeOutcome`: every frame on path 0."""
    llrs = check_llr_batch(llrs, graph.n)
    hard, valid, iters = bp_min_sum_batch(graph, llrs, cfg)
    path = np.zeros(len(llrs), dtype=np.intp)
    return DecodeOutcome(hard, valid, iters, path, _correlation(hard, llrs))


class GaedEnsemble:
    """Automorphism ensemble decoder with an ML-in-the-list final choice.

    Each path preprocesses the channel LLRs through its matrix, runs BP on
    the code's PCM, and maps the hard decision back through the inverse.
    The winner maximizes correlation with the channel LLRs among
    syndrome-valid candidates when any exist, else among all candidates;
    ties go to the lowest path index.

    Path 0 decodes every frame; paths 1.. decode only the frames where
    `certified_ml`, with d from `code.distance_bound()`, cannot prove path
    0's codeword the unique maximum-likelihood decision, so no later path
    could win there. Every output is bit for bit that of decoding all
    frames on all paths, as each frame decodes alike in any batch.
    """

    def __init__(self, code: LinearCode, auts):
        auts = list(auts)
        if not auts:
            raise ValueError("ensemble needs at least one path")
        for a in auts:
            # verify_automorphism raises on a matrix of the wrong size
            if not verify_automorphism(code, a.matrix):
                raise ValueError("matrix is not an automorphism of the code")
        self.code = code
        self.graph = TannerGraph.from_pcm(code.h)
        self.plans = [PreprocessPlan(a.matrix) for a in auts]
        # mapped bit j XORs the hard bits in row j of the inverse's edge lists
        self.inv_vars = [TannerGraph.from_pcm(a.inverse).check_vars
                         for a in auts]
        self.d = code.distance_bound()

    def _decode_path(self, p: int, llrs: np.ndarray, cfg: BpConfig
                     ) -> DecodeOutcome:
        """Path p on checked LLRs: the record of its candidates, mapped
        back to the code's coordinates."""
        # every path matrix is an automorphism (checked in __init__), so
        # the mapped word is a codeword exactly when BP's word is
        hard, valid, iters = bp_min_sum_batch(
            self.graph, self.plans[p].apply(llrs), cfg)
        # padding reads the zero column np.pad appends. No BLAS product:
        # its threads can cost more than the whole map.
        hard = np.bitwise_xor.reduce(
            np.pad(hard, ((0, 0), (0, 1)))[:, self.inv_vars[p]], axis=2)
        return DecodeOutcome(hard, valid, iters,
                             np.full(len(llrs), p, dtype=np.intp),
                             _correlation(hard, llrs))

    def decode_batch(self, llrs: np.ndarray, cfg: BpConfig) -> DecodeOutcome:
        """Each frame's winning candidate, with the path that found it."""
        llrs = check_llr_batch(llrs, self.code.n)
        out = self._decode_path(0, llrs, cfg)
        rest = np.flatnonzero(
            ~(out.is_codeword & certified_ml(llrs, out.hard_bits, self.d)))
        sub = llrs[rest]
        for p in range(1, len(self.plans)):
            cand = self._decode_path(p, sub, cfg)
            # a valid candidate beats an invalid one, then the higher
            # correlation wins; ties keep the lower path
            valid, corr = out.is_codeword[rest], out.correlation[rest]
            win = (cand.is_codeword > valid) | (
                (cand.is_codeword == valid) & (cand.correlation > corr))
            for field, new in zip(out, cand):
                field[rest[win]] = new[win]
        return out


def _check_powers(powers) -> tuple:
    """powers as a tuple of integers, or ValueError naming `powers`."""
    powers = _as_tuple("powers", powers)
    if not all(map(_is_integer, powers)):
        raise ValueError(f"powers must be integers, got {powers!r}")
    return powers


def power_ensemble(aut: GeneralizedAutomorphism, powers=(0, 1, -1)
                   ) -> list[GeneralizedAutomorphism]:
    """Ensemble members t^alpha for the given exponents, in order."""
    return [GeneralizedAutomorphism(aut.power(a), aut.power(-a))
            for a in _check_powers(powers)]


def stack_redundant_pcm(code: LinearCode, pool: DualWordPool,
                        ell: int) -> BitMatrix:
    """Overcomplete PCM of ell*(n-k) low-weight dual words spanning the dual.

    A minimum-weight basis is chosen first so the stack always spans, then
    the remaining slots take the lightest unused pool words; the result is
    sorted by (weight, value).
    """
    _check_count("ell", ell, 1)
    check_pool(code, pool)
    need = ell * (code.n - code.k)
    words = pool.words
    if len(words) < need:
        raise ValueError(f"ell={ell} needs {need} dual words "
                         f"(ell * (n-k)), but the pool has {len(words)}")
    basis = set(independent_rows(words))
    if len(basis) < code.n - code.k:
        raise ValueError(f"ell={ell} needs a pool that spans the dual "
                         f"code, and this one does not")
    rest = [w for i, w in enumerate(words) if i not in basis]
    chosen = [words[i] for i in sorted(basis)] + rest[: need - len(basis)]
    chosen.sort(key=lambda w: (w.bit_count(), w))
    stacked = BitMatrix(chosen, code.n)
    if rank(stacked) != code.n - code.k:
        raise AssertionError("stacked PCM lost rank")
    return stacked


def _osd_record(code: LinearCode, llrs, order: int) -> DecodeOutcome:
    """`osd_decode_batch` as a `DecodeOutcome`: codewords, path 0, no BP."""
    hard, corr = osd_decode_batch(code, llrs, order)
    zero = np.zeros(len(corr), dtype=np.int64)
    return DecodeOutcome(hard, zero == 0, zero, zero.astype(np.intp), corr)


def osd_decode(code: LinearCode, llrs: LlrVector, order: int) -> DecodeOutcome:
    """Ordered-statistics decoding of one frame: its row of the record of
    `osd_decode_batch`, so `hard_bits` has shape (n,). Only the benchmark's
    OSD check and its tracer still call it; decode batches instead."""
    record = _osd_record(code, llrs.values[None, :], order)
    return DecodeOutcome._make(field[0] for field in record)


def ml_decode_batch(code: LinearCode, llrs: np.ndarray) -> np.ndarray:
    """Exhaustive maximum-likelihood decisions for a (frames, n) batch."""
    llrs = check_llr_batch(llrs, code.n)
    table = code.codeword_table()
    signs = 1.0 - 2.0 * table.astype(np.float64)
    picks = (llrs @ signs.T).argmax(axis=1)
    return table[picks]
