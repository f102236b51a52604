"""Ordered-statistics decoding (Fossorier and Lin, 1995) over batches of frames.

One Gauss-Jordan elimination, vectorised over the frame axis on codewords
packed into uint64 words, gives every frame its information set. Frames
whose base candidate is certified the unique maximum-likelihood codeword
by the test of Taipale and Pursley (IEEE Trans. IT, 1991) keep it. On the
others one pass over the flip patterns builds each chunk of candidates
once, screens it by lookup tables, and scores in float64 only the frames
where a candidate could beat the running best.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

import numpy as np

from .channel import check_llr_batch
from .codes import LinearCode, _correlation, certified_ml
from .gf2 import _check_count, bits_to_words, words_to_bits


@lru_cache(maxsize=32)
def _flip_patterns(k: int, order: int) -> tuple[np.ndarray, ...]:
    groups = []
    for w in range(1, min(order, k) + 1):
        combos = itertools.chain.from_iterable(
            itertools.combinations(range(k), w))
        groups.append(np.fromiter(combos, dtype=np.int64,
                                  count=comb(k, w) * w).reshape(-1, w))
    return tuple(groups)


# OSD works on blocks of frames x flip patterns of at most this many
# candidate bits (frames * patterns * n): about 2 MB of float64 correlation
# rows at the most. A pattern group wider than the budget for one frame is
# scored in pattern chunks.
_OSD_CELL_BUDGET = 1 << 18

# row v is the +-1 sign of bits 0..7 of the byte v, least significant first
_BYTE_SIGNS = 1.0 - 2.0 * ((np.arange(256)[:, None] >> np.arange(8)) & 1)


def _osd_reduce(g: np.ndarray, perm: np.ndarray) -> tuple[np.ndarray,
                                                          np.ndarray]:
    """Information sets and reduced generators for every frame at once.

    Column j of frame f's matrix is column perm[f, j] of G. Gauss-Jordan
    elimination steps one column position at a time over all frames: a
    column joins the information set when it is independent of the columns
    before it. Returns the reduced rows, packed in the layout of
    `gaedkit.gf2` as (frames, k, words), and the information positions
    (frames, k), both in ascending position order: row i is the codeword
    that is 1 at the i-th information position and 0 at the others.
    """
    k, n = g.shape
    frames = perm.shape[0]
    rows = bits_to_words(g[:, perm].transpose(1, 0, 2))
    used = np.zeros((frames, k), dtype=bool)
    pos = np.zeros((frames, k), dtype=np.intp)
    ids = np.arange(frames)
    for c in range(n):
        col = ((rows[:, :, c >> 6] >> np.uint64(c & 63)) & np.uint64(1)) != 0
        free = col & ~used
        found = free.any(axis=1)
        piv = free.argmax(axis=1)
        col &= found[:, None]
        col[ids, piv] = False
        rows ^= np.where(col[:, :, None], rows[ids, piv][:, None, :],
                         np.uint64(0))
        used[ids[found], piv[found]] = True
        pos[ids[found], piv[found]] = c
        if used.all():
            break
    else:
        raise ValueError("generator matrix is rank deficient")
    by_pos = np.argsort(pos, axis=1)
    return (np.take_along_axis(rows, by_pos[:, :, None], axis=1),
            np.take_along_axis(pos, by_pos, axis=1))


def _candidates(rows: np.ndarray, base: np.ndarray,
                combos: np.ndarray) -> np.ndarray:
    """Packed base ^ (XOR of the rows in each pattern): (frames, patterns, words)."""
    cand = base[:, None, :] ^ rows[:, combos[:, 0]]
    for j in range(1, combos.shape[1]):
        cand ^= rows[:, combos[:, j]]
    return cand


def osd_decode_batch(code: LinearCode, llrs: np.ndarray, order: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Ordered-statistics decoding of a (frames, n) LLR array.

    Returns (hard_bits, correlation): the (frames, n) uint8 decisions and
    each decision's correlation with its frame's LLRs.

    Per frame, positions are sorted by decreasing |LLR| (stable, so ties
    keep index order), the information set is the first k independent
    columns of G in that order, and G is reduced to the identity on it.
    The base candidate re-encodes the hard decisions on the information
    set; every flip pattern of weight 1..order on it is re-encoded too
    (weight first, then lexicographic). The first candidate that reaches
    the highest correlation wins, so a later candidate replaces the best
    only by a strictly greater score. Correlations are float64 sums over
    the sorted positions: the base's by a row sum, a pattern group's by
    one matrix-vector product over the group.

    Only the frames whose base fails `certified_ml`, with d from
    `code.distance_bound()`, search the flip patterns. A certified base
    correlates higher than every other codeword by over 2e-9 * sum |LLR|,
    far beyond the rounding of a float64 correlation, so no flip pattern
    could replace it by a strictly greater score: the outputs are those of
    searching every frame. The searched frames are cut into blocks of
    the same size as a search of all frames would use.

    One pass runs over the patterns in candidate order, a chunk at a
    time. Each chunk's candidates are built once and screened with
    per-byte lookup tables of the sorted LLRs. A frame's chunk is scored
    exactly only when its screened maximum comes within the rounding slack
    of the frame's running exact best, so no candidate that could win is
    skipped. Work runs in blocks of at most `_OSD_CELL_BUDGET` candidate
    bits, which bounds memory for any k and order.
    """
    _check_count("order", order, 0)
    llrs = check_llr_batch(llrs, code.n)
    frames, n = llrs.shape
    perm = np.argsort(-np.abs(llrs), axis=1, kind="stable")
    w = np.take_along_axis(llrs, perm, axis=1)
    rows, info = _osd_reduce(code.g_numpy(), perm)
    # the base candidate re-encodes the hard decisions on the information set
    hard_info = np.take_along_axis(w < 0, info, axis=1)
    best = np.bitwise_xor.reduce(
        np.where(hard_info[:, :, None], rows, np.uint64(0)), axis=1)
    bits = words_to_bits(best, n)
    best_corr = _correlation(bits, w)
    groups = _flip_patterns(code.k, order)
    if groups:
        rest = np.flatnonzero(~certified_ml(w, bits, code.distance_bound()))
        block = max(1, _OSD_CELL_BUDGET // (max(map(len, groups)) * n))
        for lo in range(0, rest.size, block):
            f = rest[lo:lo + block]
            base, top, top_corr = best[f], best[f], best_corr[f]
            _osd_block(rows[f], base, w[f], groups, top, top_corr)
            best[f], best_corr[f] = top, top_corr
    hard = np.empty((frames, n), dtype=np.uint8)
    np.put_along_axis(hard, perm, words_to_bits(best, n), axis=1)
    return hard, best_corr


def _osd_block(rows, base, w, groups, best, best_corr):
    """Score one block of frames, updating `best` and `best_corr` in place."""
    frames, n = w.shape
    n_bytes = -(-n // 8)
    padded = np.zeros((frames, 8 * n_bytes))
    padded[:, :n] = w
    # tables[b, f, v]: frame f's score of the byte v at byte position b
    tables = np.ascontiguousarray(
        (padded.reshape(frames, n_bytes, 8) @ _BYTE_SIGNS.T).transpose(1, 0, 2)
    ).reshape(n_bytes, -1)
    # a screened and an exact score differ by at most
    # (n + n_bytes + 8) * eps/2 * sum|w|, so a candidate that beats the
    # running best screens within that of it; the slack is several times it
    slack = 4 * (n + 8) * np.finfo(np.float64).eps * np.abs(w).sum(axis=1)
    offsets = np.arange(frames)[:, None] * 256
    for combos in groups:
        step = (len(combos) if len(combos) * n <= _OSD_CELL_BUDGET
                else max(1, _OSD_CELL_BUDGET // n))
        for i in range(0, len(combos), step):
            cand = _candidates(rows, base, combos[i:i + step])
            octets = cand.view(np.uint8)
            score = tables[0][octets[..., 0] + offsets]
            for b in range(1, n_bytes):
                score += tables[b][octets[..., b] + offsets]
            sel = np.flatnonzero(score.max(axis=1) >= best_corr - slack)
            if not sel.size:
                continue
            # exact: one matrix-vector product per chunk and frame
            cand = cand[sel]
            corr = np.matmul(np.where(words_to_bits(cand, n), -1.0, 1.0),
                             w[sel][:, :, None])[:, :, 0]
            pick = corr.argmax(axis=1)
            val = corr[np.arange(sel.size), pick]
            better = val > best_corr[sel]
            best_corr[sel[better]] = val[better]
            best[sel[better]] = cand[better, pick[better]]
