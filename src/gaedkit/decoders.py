"""Decoders: box-plus preprocessing, min-sum BP, ensembles, OSD, ML.

All iterative decoding runs through one batched kernel over the edge lists
of a TannerGraph, built once per parity-check matrix: each iteration costs
the number of edges, not checks * n, and a single frame and a batch member
follow bit-identical arithmetic. Ensemble paths preprocess the channel LLRs
through an automorphism (box-plus per output coordinate), decode
independently, map the hard decisions back through the inverse matrix, and
keep the most likely candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automorphisms import GeneralizedAutomorphism, verify_automorphism
from .channel import LLR_CLAMP, LlrVector
from .codes import DualWordPool, LinearCode, check_pool
from .gf2 import BitMatrix, independent_rows, rank
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
    degree 1 copy their input bit-for-bit, so a permutation matrix yields an
    exact coordinate permutation.
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
        if llrs.shape[-1] != self.n:
            raise ValueError("LLR length does not match the matrix")
        out = np.empty_like(llrs)
        for rows, sels in self.groups:
            if sels.shape[1] == 1:
                out[:, rows] = llrs[:, sels[:, 0]]
                continue
            acc = llrs[:, sels[:, 0]]
            for col in range(1, sels.shape[1]):
                acc = _pair_box_plus(acc, llrs[:, sels[:, col]])
            out[:, rows] = np.clip(acc, -LLR_CLAMP, LLR_CLAMP)
        return out


@dataclass(frozen=True)
class BpConfig:
    """Normalized min-sum settings; flooding is the only schedule."""

    iterations: int
    normalization: float = 0.75
    early_stop: bool = True

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if not 0.0 < self.normalization <= 1.0:
            raise ValueError("normalization must be in (0, 1]")


@dataclass(frozen=True)
class DecodeOutcome:
    """One frame's hard decision and bookkeeping, as `osd_decode` returns it."""

    hard_bits: np.ndarray
    is_codeword: bool
    iterations_used: int
    path_index: int
    correlation: float

    def __post_init__(self) -> None:
        bits = np.ascontiguousarray(self.hard_bits, dtype=np.uint8)
        bits.flags.writeable = False
        object.__setattr__(self, "hard_bits", bits)


@dataclass(frozen=True, eq=False)
class TannerGraph:
    """Edge lists of a parity-check matrix, in the layout the kernel reads.

    Row c of `check_vars` holds check c's variables in ascending column
    order, padded to the largest row degree with the phantom variable n;
    `check_valid` marks the real entries. Row v of `var_slots` holds
    variable v's edges as flat indices into the (checks, width) slot grid,
    in ascending check order, padded with `checks * width`, one past the
    grid.
    """

    n: int
    check_vars: np.ndarray
    check_valid: np.ndarray
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
        for a in (check_vars, valid, var_slots):
            a.flags.writeable = False
        return cls(n, check_vars, valid, var_slots)

    @property
    def checks(self) -> int:
        return self.check_vars.shape[0]


def bp_min_sum_batch(graph: TannerGraph, llrs: np.ndarray, cfg: BpConfig
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flooding normalized min-sum over the edges of a Tanner graph.

    Returns (hard_bits, is_codeword, iterations_used) arrays over the batch.
    Converged frames drop out of the working set when early_stop is on;
    otherwise every frame runs all iterations and reports its final state.

    Messages live on the graph's (checks, width) slot grid with frames on
    the last axis, so each step costs the number of slots, not checks * n.
    Each variable adds its check messages to +0.0 one slot at a time in
    ascending check order: bit for bit the sequential sum over all checks
    of a dense (checks, n) layout that holds zeros off the edges.
    """
    n_frames, n = llrs.shape
    if n != graph.n:
        raise ValueError("LLR length does not match the graph")
    out_hard = np.empty((n_frames, n), dtype=np.uint8)
    out_valid = np.zeros(n_frames, dtype=bool)
    out_iters = np.full(n_frames, cfg.iterations, dtype=np.int64)
    if n_frames == 0:
        return out_hard, out_valid, out_iters
    # a NaN would decode as a valid all-zero word; big finite values saturate
    if not np.isfinite(llrs).all():
        raise ValueError("llrs contain NaN or infinity")
    check_vars, var_slots = graph.check_vars, graph.var_slots
    checks, width = check_vars.shape
    slots = checks * width
    idx = np.arange(n_frames)
    # Row n is the phantom variable that padding slots read. Its LLR is
    # +inf, so its messages are positive and its hard decision is 0. Its
    # magnitude (+inf, then +LLR_CLAMP once clipped) is never below a real
    # message's, so it changes only the empty "other" set of a degree-1
    # check, whose message saturates at LLR_CLAMP either way.
    chan = np.concatenate((llrs.T, np.full((1, n_frames), np.inf)))
    v_msg = chan[check_vars]
    for it in range(1, cfg.iterations + 1):
        frames = chan.shape[1]
        mags = np.abs(v_msg)
        min1 = mags.min(axis=1)
        at_min = mags == min1[:, None]
        # the minimum over the other slots is min2 on a slot holding min1
        # and min1 elsewhere; on a tie for min1, min2 equals min1
        ties = at_min.sum(axis=1) > 1
        min2 = np.where(ties, min1, np.where(at_min, np.inf, mags).min(axis=1))
        neg = np.signbit(v_msg)
        # the product of the other signs is negative where a slot's own sign
        # differs from the parity of the check's negative messages
        flip = neg ^ np.logical_xor.reduce(neg, axis=1)[:, None]
        # row `slots` of the flat grid is the zero that padded variable
        # slots read
        c_flat = np.empty((slots + 1, frames))
        c_flat[slots] = 0.0
        c_msg = c_flat[:slots].reshape(checks, width, frames)
        np.minimum(np.where(at_min, min2[:, None], min1[:, None]), LLR_CLAMP,
                   out=c_msg)
        # negation is exact: bit for bit (normalization * sign) * magnitude
        c_msg *= cfg.normalization
        np.negative(c_msg, where=flip, out=c_msg)
        acc = np.zeros_like(chan)
        for col in var_slots.T:
            acc[:n] += c_flat[col]
        total = chan + acc
        hard = total < 0.0
        valid = ~np.logical_xor.reduce(hard[check_vars], axis=1).any(axis=0)
        if it == cfg.iterations:
            out_hard[idx] = hard[:n].T
            out_valid[idx] = valid
            break
        if cfg.early_stop and valid.any():
            done_idx = idx[valid]
            out_hard[done_idx] = hard[:n, valid].T
            out_valid[done_idx] = True
            out_iters[done_idx] = it
            live = ~valid
            if not live.any():
                break
            idx, chan = idx[live], chan[:, live]
            total, c_msg = total[:, live], c_msg[:, :, live]
        v_msg = total[check_vars]
        v_msg -= c_msg
        np.clip(v_msg, -LLR_CLAMP, LLR_CLAMP, out=v_msg)
    return out_hard, out_valid, out_iters


def _correlation(hard: np.ndarray, llrs: np.ndarray) -> np.ndarray:
    return ((1.0 - 2.0 * hard.astype(np.float64)) * llrs).sum(axis=-1)


class GaedEnsemble:
    """Automorphism ensemble decoder with an ML-in-the-list final choice.

    Each path preprocesses the channel LLRs through its matrix, runs BP on
    the code's PCM, and maps the hard decision back through the inverse.
    The winner maximizes correlation with the channel LLRs among
    syndrome-valid candidates when any exist, else among all candidates;
    ties go to the lowest path index.
    """

    def __init__(self, code: LinearCode, auts):
        auts = list(auts)
        if not auts:
            raise ValueError("ensemble needs at least one path")
        for a in auts:
            if a.n != code.n:
                raise ValueError("automorphism size does not match the code")
            if not verify_automorphism(code, a.matrix):
                raise ValueError("matrix is not an automorphism of the code")
        self.code = code
        self.graph = TannerGraph.from_pcm(code.h)
        self.plans = [PreprocessPlan(a.matrix) for a in auts]
        self.inv_maps = [np.ascontiguousarray(
            a.inverse.to_numpy().astype(np.int32).T) for a in auts]

    def decode_batch(self, llrs: np.ndarray, cfg: BpConfig
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray, np.ndarray]:
        """Returns (hard_bits, is_codeword, iterations, path_index, corr)."""
        # box-plus would turn an infinity finite before BP could see it
        if not np.isfinite(llrs).all():
            raise ValueError("llrs contain NaN or infinity")
        n_frames = llrs.shape[0]
        paths = len(self.plans)
        hards = np.empty((paths, n_frames, self.code.n), dtype=np.uint8)
        valids = np.empty((paths, n_frames), dtype=bool)
        iters = np.empty((paths, n_frames), dtype=np.int64)
        corrs = np.empty((paths, n_frames), dtype=np.float64)
        for p, (plan, inv_map) in enumerate(zip(self.plans, self.inv_maps)):
            # every path matrix is an automorphism (checked in __init__),
            # so the mapped word is a codeword exactly when BP's word is
            hard, valids[p], iters[p] = bp_min_sum_batch(
                self.graph, plan.apply(llrs), cfg)
            mapped = ((hard.astype(np.int32) @ inv_map) & 1).astype(np.uint8)
            hards[p] = mapped
            corrs[p] = _correlation(mapped, llrs)
        any_valid = valids.any(axis=0)
        score = np.where(valids == any_valid[None, :], corrs, -np.inf)
        sel = score.argmax(axis=0)
        frame_ids = np.arange(n_frames)
        return (hards[sel, frame_ids], valids[sel, frame_ids],
                iters[sel, frame_ids], sel, corrs[sel, frame_ids])


def power_ensemble(aut: GeneralizedAutomorphism, powers=(0, 1, -1)
                   ) -> list[GeneralizedAutomorphism]:
    """Ensemble members t^alpha for the given exponents, in order."""
    return [GeneralizedAutomorphism.from_matrix(aut.power(a)) for a in powers]


def stack_redundant_pcm(code: LinearCode, pool: DualWordPool,
                        ell: int) -> BitMatrix:
    """Overcomplete PCM of ell*(n-k) low-weight dual words spanning the dual.

    A minimum-weight basis is chosen first so the stack always spans, then
    the remaining slots take the lightest unused pool words; the result is
    sorted by (weight, value).
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
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


def osd_decode(code: LinearCode, llrs: LlrVector, order: int) -> DecodeOutcome:
    """Ordered-statistics decoding of one frame: the one-row call of
    `osd_decode_batch`, with its checks, its tie rule and its result.

    Only the benchmark's OSD check and its tracer still call it; decode
    batches with `osd_decode_batch`."""
    hard, corr = osd_decode_batch(code, llrs.values[None, :], order)
    return DecodeOutcome(hard[0], True, 0, 0, float(corr[0]))


def ml_decode_batch(code: LinearCode, llrs: np.ndarray) -> np.ndarray:
    """Exhaustive maximum-likelihood decisions for a (frames, n) batch."""
    if llrs.shape[-1] != code.n:
        raise ValueError(f"llrs length {llrs.shape[-1]} does not match the "
                         f"code length {code.n}")
    # argmax over a row of NaN correlations would pick the all-zero word
    if not np.isfinite(llrs).all():
        raise ValueError("llrs contain NaN or infinity")
    table = code.codeword_table()
    signs = 1.0 - 2.0 * table.astype(np.float64)
    picks = (llrs @ signs.T).argmax(axis=1)
    return table[picks]
