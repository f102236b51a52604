"""Decoder kernels against naive references and high-precision oracles."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from gaedkit import codes, decoders, osd
from gaedkit.automorphisms import (GeneralizedAutomorphism,
                                   construct_code_with_automorphism,
                                   sample_sparse_invertible)
from gaedkit.channel import (LLR_CLAMP, LlrVector, awgn_llr_batch,
                             check_llr_batch)
from gaedkit.codes import DualWordPool, LinearCode, certified_ml
from gaedkit.decoders import (BpConfig, DecodeOutcome, GaedEnsemble,
                              PreprocessPlan, TannerGraph, bp_min_sum_batch,
                              box_plus, ml_decode_batch, osd_decode,
                              power_ensemble, stack_redundant_pcm)
from gaedkit.gf2 import (BitMatrix, independent_rows, invert, rank,
                         words_to_bits)
from gaedkit.gf2poly import Gf2Poly
from gaedkit.osd import osd_decode_batch

mp.dps = 50

HAMMING_74_H = BitMatrix.from_rows([
    [1, 0, 1, 0, 1, 0, 1],
    [0, 1, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
])


def box_plus_reference(vals) -> float:
    """2 atanh(prod tanh(v/2)) evaluated at 50 decimal digits."""
    prod = mp.mpf(1)
    for v in vals:
        prod *= mp.tanh(mp.mpf(float(v)) / 2)
    return float(2 * mp.atanh(prod))


def random_code(rng, n, r):
    while True:
        h = BitMatrix.from_numpy(rng.integers(0, 2, size=(r, n), dtype=np.uint8))
        if rank(h) == r:
            return LinearCode.from_pcm(h)


def random_pcm_no_empty_rows(rng, m, n):
    while True:
        h = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        if h.any(axis=1).all():
            return BitMatrix.from_numpy(h)


# -- box plus ---------------------------------------------------------------

def test_box_plus_frozen_value():
    got = box_plus((1.0, 1.0))
    assert abs(got - 0.4337808304830271) < 1e-15
    assert abs(got - box_plus_reference([1.0, 1.0])) < 1e-12


def test_box_plus_matches_mpmath():
    rng = np.random.default_rng(70)
    for _ in range(300):
        vals = rng.uniform(-15.0, 15.0, size=int(rng.integers(2, 9)))
        got = box_plus(vals)
        assert abs(got - box_plus_reference(vals)) < 1e-9


def test_box_plus_edges():
    assert box_plus((7.25,)) == 7.25
    assert box_plus((3.7, 0.0)) == 0.0
    assert box_plus((40.0, 40.0)) <= LLR_CLAMP     # final clip
    with pytest.raises(ValueError):
        box_plus(())
    with pytest.raises(ValueError):
        box_plus(np.zeros((2, 2)))


def test_box_plus_contraction_and_sign():
    rng = np.random.default_rng(71)
    for _ in range(200):
        a, b = rng.uniform(-20.0, 20.0, size=2)
        got = box_plus((a, b))
        assert abs(got) <= min(abs(a), abs(b)) + 1e-12
        if a != 0 and b != 0:
            assert math.copysign(1, got) == math.copysign(1, a) * math.copysign(1, b)


# -- preprocessing ----------------------------------------------------------

def test_preprocess_permutation_is_bitwise():
    rng = np.random.default_rng(72)
    perm = rng.permutation(8)
    t = BitMatrix.from_rows([[1 if j == perm[i] else 0 for j in range(8)]
                             for i in range(8)])
    llrs = rng.uniform(-10, 10, size=(5, 8))
    out = PreprocessPlan(t).apply(llrs)
    assert np.array_equal(out, llrs[:, perm])


def test_preprocess_combines_rows_by_box_plus():
    t = BitMatrix.from_rows([[1, 1, 0], [0, 1, 0], [1, 1, 1]])
    vals = np.array([[2.0, -3.0, 1.5]])
    out = PreprocessPlan(t).apply(vals)
    assert out[0, 0] == pytest.approx(box_plus((2.0, -3.0)), abs=1e-12)
    assert out[0, 1] == -3.0
    assert out[0, 2] == pytest.approx(box_plus((2.0, -3.0, 1.5)), abs=1e-12)


def test_preprocess_validation():
    with pytest.raises(ValueError, match="square"):
        PreprocessPlan(BitMatrix([0, 0], 3))
    with pytest.raises(ValueError, match="row 1 .* zero"):
        PreprocessPlan(BitMatrix.from_rows([[1, 0], [0, 0]]))
    plan = PreprocessPlan(BitMatrix.identity(4))
    with pytest.raises(ValueError, match="length"):
        plan.apply(np.zeros((2, 5)))


# -- BP kernel --------------------------------------------------------------

def naive_min_sum(h: BitMatrix, chan: np.ndarray, cfg: BpConfig):
    """Dictionary-based normalized min-sum, written without vectorization."""
    m, n = h.shape
    neighbors = [[v for v in range(n) if h.row_bits(c) >> v & 1]
                 for c in range(m)]
    v2c = {(c, v): float(chan[v]) for c in range(m) for v in neighbors[c]}
    hard = None
    for it in range(1, cfg.iterations + 1):
        c2v = {}
        for c in range(m):
            for v in neighbors[c]:
                sign = 1.0
                mag = math.inf
                for u in neighbors[c]:
                    if u == v:
                        continue
                    x = v2c[(c, u)]
                    if math.copysign(1.0, x) < 0:
                        sign = -sign
                    mag = min(mag, abs(x))
                c2v[(c, v)] = cfg.normalization * sign * min(mag, LLR_CLAMP)
        total = np.zeros(n)
        for v in range(n):
            s = float(chan[v])
            for c in range(m):
                if (c, v) in c2v:
                    s += c2v[(c, v)]
            total[v] = s
        hard = (total < 0.0).astype(np.uint8)
        valid = all(sum(int(hard[v]) for v in neighbors[c]) % 2 == 0
                    for c in range(m))
        if valid or it == cfg.iterations:
            return hard, valid, it
        for c in range(m):
            for v in neighbors[c]:
                x = total[v] - c2v[(c, v)]
                v2c[(c, v)] = min(max(x, -LLR_CLAMP), LLR_CLAMP)
    raise AssertionError("unreachable")


def dense_min_sum_batch(mask: np.ndarray, llrs: np.ndarray, cfg: BpConfig):
    """The former dense (frames, checks, n) kernel, kept as the oracle.

    Every message lives on the full (checks, n) grid with zeros off the
    edges; the variable sum is numpy's sequential axis-1 sum over all
    checks. The edge-list kernel must match it bit for bit.
    """
    n_frames, n = llrs.shape
    out_hard = np.empty((n_frames, n), dtype=np.uint8)
    out_valid = np.zeros(n_frames, dtype=bool)
    out_iters = np.full(n_frames, cfg.iterations, dtype=np.int64)
    if n_frames == 0:
        return out_hard, out_valid, out_iters
    idx = np.arange(n_frames)
    chan = llrs
    v_msg = np.where(mask[None], chan[:, None, :], 0.0)
    col_ids = np.arange(n)
    for it in range(1, cfg.iterations + 1):
        mags = np.where(mask[None], np.abs(v_msg), np.inf)
        first = mags.argmin(axis=2)
        min1 = np.take_along_axis(mags, first[:, :, None], 2)[:, :, 0]
        np.put_along_axis(mags, first[:, :, None], np.inf, 2)
        min2 = mags.min(axis=2)
        neg = np.signbit(v_msg) & mask[None]
        row_sign = np.where((neg.sum(axis=2) & 1).astype(bool), -1.0, 1.0)
        ext_sign = np.where(neg, -row_sign[:, :, None], row_sign[:, :, None])
        ext_mag = np.minimum(
            np.where(col_ids[None, None, :] == first[:, :, None],
                     min2[:, :, None], min1[:, :, None]), LLR_CLAMP)
        c_msg = np.where(mask[None], cfg.normalization * ext_sign * ext_mag,
                         0.0)
        total = chan + c_msg.sum(axis=1)
        hard = total < 0.0
        parity = (hard[:, None, :] & mask[None]).sum(axis=2) & 1
        valid = ~parity.any(axis=1)
        if it == cfg.iterations:
            out_hard[idx] = hard
            out_valid[idx] = valid
            break
        if valid.any():
            done_idx = idx[valid]
            out_hard[done_idx] = hard[valid]
            out_valid[done_idx] = True
            out_iters[done_idx] = it
            live = ~valid
            if not live.any():
                break
            idx, chan = idx[live], chan[live]
            total, c_msg = total[live], c_msg[live]
        v_msg = np.where(mask[None],
                         np.clip(total[:, None, :] - c_msg,
                                 -LLR_CLAMP, LLR_CLAMP), 0.0)
    return out_hard, out_valid, out_iters


def adversarial_mask(rng) -> np.ndarray:
    """Random (checks, n) adjacency with degree-1 rows, a column in every
    check and a column in none, each often enough to matter."""
    m = int(rng.integers(1, 10))
    n = int(rng.integers(2, 16))
    mask = rng.random((m, n)) < rng.uniform(0.1, 0.9)
    if rng.random() < 0.4:
        mask[:, rng.integers(n)] = True
    if rng.random() < 0.4:
        mask[:, rng.integers(n)] = False
    for r in range(m):
        if rng.random() < 0.2:
            mask[r] = False
        if not mask[r].any():
            mask[r, rng.integers(n)] = True
    return mask


def adversarial_llrs(rng, frames: int, n: int, clamp: float) -> np.ndarray:
    """LLRs with exact +-0.0, +-clamp and repeated magnitudes, so signed
    zeros and argmin ties occur; in kind 3 every magnitude is exactly the
    clamp, so whole checks start there."""
    kind = int(rng.integers(4))
    if kind == 0:
        return rng.uniform(-8.0, 8.0, size=(frames, n))
    if kind == 3:
        return np.where(rng.random((frames, n)) < 0.5, -clamp, clamp)
    if kind == 1:
        pool = np.array([0.0, -0.0, clamp, -clamp, 1.5, -1.5, 0.5, -0.5])
        return rng.choice(pool, size=(frames, n))
    llrs = rng.integers(-3, 4, size=(frames, n)) * 0.5
    llrs[rng.random((frames, n)) < 0.25] = -0.0
    return llrs


def test_edge_kernel_matches_dense_oracle():
    rng = np.random.default_rng(90)
    for trial in range(400):
        mask = adversarial_mask(rng)
        cfg = BpConfig(iterations=int(rng.choice([1, 2, 5, 12])),
                       normalization=float(rng.choice([1.0, 0.75, 0.3])))
        llrs = adversarial_llrs(rng, int(rng.integers(1, 24)),
                                mask.shape[1], LLR_CLAMP)
        graph = TannerGraph.from_pcm(
            BitMatrix.from_numpy(mask.astype(np.uint8)))
        got = bp_min_sum_batch(graph, llrs, cfg)
        want = dense_min_sum_batch(mask, llrs, cfg)
        for name, g, w in zip(("hard", "valid", "iters"), got, want):
            assert np.array_equal(g, w), (trial, name)


@pytest.mark.parametrize("cap", [1, 2, 3, 7])
def test_refilled_live_set_matches_dense_oracle(monkeypatch, cap):
    # batches up to 3 * cap + 5 frames refill the live set many times, with
    # frames of different iteration counts in flight together
    monkeypatch.setattr(decoders, "_live_cap", lambda slots: cap)
    rng = np.random.default_rng(93 + cap)
    for iterations in (1, 2, 12):
        cfg = BpConfig(iterations=iterations)
        for frames in (0, 1, cap, cap + 1, 3 * cap + 5):
            mask = adversarial_mask(rng)
            llrs = adversarial_llrs(rng, frames, mask.shape[1], LLR_CLAMP)
            graph = TannerGraph.from_pcm(
                BitMatrix.from_numpy(mask.astype(np.uint8)))
            got = bp_min_sum_batch(graph, llrs, cfg)
            want = dense_min_sum_batch(mask, llrs, cfg)
            for name, g, w in zip(("hard", "valid", "iters"), got, want):
                assert np.array_equal(g, w), (iterations, frames, name)


def test_bp_memory_is_bounded_by_the_live_set():
    code = construct_code_with_automorphism(32, 16, 10, seed=6).code
    graph = TannerGraph.from_pcm(code.h)
    cap = decoders._live_cap(graph.check_vars.size)
    cfg = BpConfig(iterations=10)
    llrs = awgn_llr_batch(np.zeros((16 * cap, code.n), dtype=np.uint8), 2.0,
                          code.rate, np.random.default_rng(94))
    peaks = []
    for frames in (cap, 16 * cap):
        tracemalloc.start()
        try:
            bp_min_sum_batch(graph, llrs[:frames], cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_tanner_graph_layout():
    h = BitMatrix.from_rows([[0, 1, 0, 1, 1],
                             [1, 0, 0, 0, 0],
                             [0, 1, 0, 0, 1]])
    g = TannerGraph.from_pcm(h)
    # the phantom variable n pads each check past its real entries
    real = g.check_vars != g.n
    assert (g.n, g.check_vars.shape[0], int(real.sum())) == (5, 3, 6)
    assert g.check_vars.tolist() == [[1, 3, 4], [0, 5, 5], [1, 4, 5]]
    assert real.tolist() == [[True, True, True],
                             [True, False, False],
                             [True, True, False]]
    # flat slots c*width + j in ascending check order; 9 is the zero slot,
    # and column 2 is in no check
    assert g.var_slots.tolist() == [[3, 9], [0, 6], [9, 9], [1, 9], [2, 7]]
    with pytest.raises(ValueError):
        g.check_vars[0, 0] = 2
    with pytest.raises(ValueError, match="length"):
        bp_min_sum_batch(g, np.zeros((2, 4)), BpConfig(iterations=1))
    with pytest.raises(ValueError, match="empty row"):
        TannerGraph.from_pcm(BitMatrix.from_rows([[1, 1], [0, 0]]))
    with pytest.raises(ValueError, match="empty Tanner graph"):
        TannerGraph.from_pcm(BitMatrix([], 3))


def test_bp_matches_naive_reference():
    rng = np.random.default_rng(73)
    for trial in range(200):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(3, 10))
        h = random_pcm_no_empty_rows(rng, m, n)
        chan = rng.uniform(-8.0, 8.0, size=n)
        cfg = BpConfig(iterations=int(rng.integers(1, 8)),
                       normalization=float(rng.choice([1.0, 0.75, 0.5])))
        hard, valid, iters = bp_min_sum_batch(TannerGraph.from_pcm(h),
                                              chan[None, :], cfg)
        want_hard, want_valid, want_iters = naive_min_sum(h, chan, cfg)
        assert np.array_equal(hard[0], want_hard), trial
        assert valid[0] == want_valid, trial
        assert iters[0] == want_iters, trial


def test_bp_batch_matches_single():
    rng = np.random.default_rng(74)
    code = random_code(rng, 16, 8)
    cfg = BpConfig(iterations=12)
    frames = awgn_llr_batch(np.zeros((128, 16), dtype=np.uint8), 1.5, 0.5,
                            np.random.default_rng(7))
    graph = TannerGraph.from_pcm(code.h)
    hard, valid, iters = bp_min_sum_batch(graph, frames, cfg)
    for i in range(128):
        one_hard, one_valid, one_iters = bp_min_sum_batch(
            graph, frames[i:i + 1], cfg)
        assert np.array_equal(one_hard[0], hard[i])
        assert one_valid[0] == valid[i]
        assert one_iters[0] == iters[i]


def test_bp_noiseless_converges_in_one_iteration():
    rng = np.random.default_rng(75)
    code = random_code(rng, 12, 5)
    msg = rng.integers(0, 2, size=code.k, dtype=np.uint8)
    cw = code.encode(msg).astype(np.float64)
    llrs = (1.0 - 2.0 * cw[None, :]) * 20.0
    hard, valid, iters = bp_min_sum_batch(TannerGraph.from_pcm(code.h), llrs,
                                          BpConfig(iterations=10))
    assert valid[0]
    assert iters[0] == 1
    assert np.array_equal(hard[0], cw.astype(np.uint8))


def test_bp_config_validation():
    with pytest.raises(ValueError, match="iterations"):
        BpConfig(iterations=0)
    for bad in (2.5, 2.0, "3", True, False):
        with pytest.raises(ValueError, match="iterations must be an integer"):
            BpConfig(iterations=bad)
    assert BpConfig(iterations=np.int64(3)).iterations == 3
    with pytest.raises(ValueError, match="normalization"):
        BpConfig(iterations=1, normalization=0.0)
    with pytest.raises(ValueError, match="normalization"):
        BpConfig(iterations=1, normalization=1.5)
    # a wrong type once raised a bare TypeError, and True passed as 1.0
    for bad in ("0.5", None, True, np.True_, [0.5]):
        with pytest.raises(ValueError, match="normalization must be a number"):
            BpConfig(iterations=5, normalization=bad)
    assert BpConfig(iterations=5, normalization=np.float32(0.5)).normalization \
        == 0.5


def test_bp_input_validation():
    cfg = BpConfig(iterations=2)
    with pytest.raises(ValueError, match="empty row"):
        TannerGraph.from_pcm(BitMatrix.from_rows([[1, 1], [0, 0]]))
    graph = TannerGraph.from_pcm(HAMMING_74_H)
    # an empty batch is checked too
    for llrs in (np.ones((1, 6)), np.ones((0, 5))):
        with pytest.raises(ValueError, match="length"):
            bp_min_sum_batch(graph, llrs, cfg)
    hard, valid, iters = bp_min_sum_batch(graph, np.ones((0, 7)), cfg)
    assert (hard.shape, valid.shape, iters.shape) == ((0, 7), (0,), (0,))


def test_decode_outcome_is_frozen():
    # a named tuple over a batch: its fields cannot be reassigned
    out = DecodeOutcome(np.array([[1, 0, 1]], dtype=np.uint8),
                        np.array([True]), np.array([3]), np.array([0]),
                        np.array([1.5]))
    assert out._fields == ("hard_bits", "is_codeword", "iterations_used",
                           "path_index", "correlation")
    with pytest.raises(AttributeError):
        out.is_codeword = False


# -- ensembles --------------------------------------------------------------

def built_pair(seed=0):
    res = construct_code_with_automorphism(16, 8, 4, seed=seed)
    return res.code, res.aut


def test_identity_path_reproduces_plain_bp():
    code, _ = built_pair()
    cfg = BpConfig(iterations=10)
    frames = awgn_llr_batch(np.zeros((300, code.n), dtype=np.uint8), 2.0,
                            code.k / code.n, np.random.default_rng(8))
    ens = GaedEnsemble(code, [GeneralizedAutomorphism.identity(code.n)])
    hard, valid, iters, path, corr = ens.decode_batch(frames, cfg)
    assert np.all(path == 0)
    graph = TannerGraph.from_pcm(code.h)
    bhard, bvalid, biters = bp_min_sum_batch(graph, frames, cfg)
    assert np.array_equal(dense_min_sum_batch(code.h_numpy().astype(bool),
                                              frames, cfg)[0], bhard)
    # identity preprocessing and identity mapping: bit-identical to plain BP
    assert np.array_equal(hard, bhard)
    assert np.array_equal(iters, biters)
    syn = (bhard.astype(np.int32) @ code.h_numpy().astype(np.int32).T) & 1
    assert np.array_equal(valid, ~syn.any(axis=1))
    assert np.array_equal(valid, bvalid)


def test_ensemble_selection_rule_recomputed():
    code, aut = built_pair()
    auts = power_ensemble(aut)
    cfg = BpConfig(iterations=8)
    frames = awgn_llr_batch(np.zeros((300, code.n), dtype=np.uint8), 1.0,
                            code.k / code.n, np.random.default_rng(9))
    ens = GaedEnsemble(code, auts)
    hard, valid, iters, path, corr = ens.decode_batch(frames, cfg)

    graph = TannerGraph.from_pcm(code.h)
    mask = code.h_numpy().astype(bool)
    ht = code.h_numpy().astype(np.int32).T
    cand, cand_valid, cand_corr, cand_iters = [], [], [], []
    for a in auts:
        pre = PreprocessPlan(a.matrix).apply(frames)
        h_p, _, used = bp_min_sum_batch(graph, pre, cfg)
        d_hard, _, d_used = dense_min_sum_batch(mask, pre, cfg)
        assert np.array_equal(h_p, d_hard) and np.array_equal(used, d_used)
        mapped = ((h_p.astype(np.int32) @ a.inverse.to_numpy().astype(np.int32).T)
                  & 1).astype(np.uint8)
        cand.append(mapped)
        cand_valid.append(~(((mapped.astype(np.int32) @ ht) & 1).any(axis=1)))
        cand_corr.append(((1.0 - 2.0 * mapped) * frames).sum(axis=1))
        cand_iters.append(used)

    for f in range(frames.shape[0]):
        valids = [cand_valid[p][f] for p in range(len(auts))]
        corrs = [cand_corr[p][f] for p in range(len(auts))]
        eligible = [p for p in range(len(auts)) if valids[p]] or list(range(len(auts)))
        best = max(eligible, key=lambda p: (corrs[p], -p))
        assert path[f] == best
        assert np.array_equal(hard[f], cand[best][f])
        assert valid[f] == valids[best]
        assert iters[f] == cand_iters[best][f]
        assert corr[f] == corrs[best]


def test_ensemble_tie_break_prefers_lowest_path():
    code, _ = built_pair()
    eye = GeneralizedAutomorphism.identity(code.n)
    ens = GaedEnsemble(code, [eye, eye, eye])
    frames = awgn_llr_batch(np.zeros((50, code.n), dtype=np.uint8), 2.0,
                            0.5, np.random.default_rng(10))
    _, _, _, path, _ = ens.decode_batch(frames, BpConfig(iterations=5))
    assert np.all(path == 0)


def test_ensemble_validation():
    code, aut = built_pair()
    with pytest.raises(ValueError, match="at least one"):
        GaedEnsemble(code, [])
    with pytest.raises(ValueError, match="size"):
        GaedEnsemble(code, [GeneralizedAutomorphism.identity(code.n + 1)])
    rng = np.random.default_rng(11)
    intruder = GeneralizedAutomorphism.from_matrix(
        BitMatrix.random_invertible(code.n, rng))
    from gaedkit.automorphisms import verify_automorphism
    assert not verify_automorphism(code, intruder.matrix)
    with pytest.raises(ValueError, match="not an automorphism"):
        GaedEnsemble(code, [intruder])


def test_power_ensemble_members():
    _, aut = built_pair()
    members = power_ensemble(aut, powers=(0, 1, -1))
    assert members[0].matrix == BitMatrix.identity(aut.n)
    assert members[1].matrix == aut.matrix
    assert members[2].matrix == aut.inverse
    seven = power_ensemble(aut, powers=(-3, -2, -1, 0, 1, 2, 3))
    assert len(seven) == 7
    assert seven[0].matrix == aut.inverse @ aut.inverse @ aut.inverse
    assert seven[6].matrix == aut.matrix @ aut.matrix @ aut.matrix


@pytest.mark.parametrize("n,k,delta,seed", [(32, 16, 10, 6), (64, 48, 16, 0),
                                            (39, 24, 0, 17)])
def test_inverse_maps_match_per_frame_products(monkeypatch, n, k, delta, seed):
    # BP is stubbed to return chosen words, so decode_batch's output is its
    # mapping of them through the one path's inverse
    res = construct_code_with_automorphism(n, k, delta, seed=seed)
    n = res.code.n                  # construction may drop zero columns
    rng = np.random.default_rng(seed)
    words = np.vstack((np.zeros(n), np.ones(n),
                       rng.integers(0, 2, size=(40, n)))).astype(np.uint8)
    stub = (words, np.ones(len(words), dtype=bool), np.ones(len(words), int))
    monkeypatch.setattr(decoders, "bp_min_sum_batch", lambda *args: stub)
    llrs = np.ones((len(words), n))
    for a in power_ensemble(res.aut):
        got = GaedEnsemble(res.code, [a]).decode_batch(
            llrs, BpConfig(iterations=1))[0]
        want = words.astype(np.int64) @ a.inverse.to_numpy().T % 2
        assert np.array_equal(got, want)


def test_gaed_decode_single_frame():
    code, aut = built_pair()
    cw = code.encode(np.ones(code.k, dtype=np.uint8)).astype(np.float64)
    llrs = (1.0 - 2.0 * cw[None, :]) * 12.0
    hard, valid, _, path, _ = GaedEnsemble(
        code, power_ensemble(aut)).decode_batch(llrs, BpConfig(iterations=8))
    assert valid[0]
    assert np.array_equal(hard[0], cw.astype(np.uint8))
    assert path[0] == 0


def full_gaed_decode_batch(ens: GaedEnsemble, llrs, cfg: BpConfig):
    """The former `GaedEnsemble.decode_batch`, kept as the oracle: every
    path decodes every frame, then the selection rule picks per frame.
    The certified skip must match it bit for bit."""
    llrs = check_llr_batch(llrs, ens.code.n)
    shape = (len(ens.plans), llrs.shape[0])
    hards = np.empty(shape + (ens.code.n,), dtype=np.uint8)
    valids = np.empty(shape, dtype=bool)
    iters = np.empty(shape, dtype=np.int64)
    corrs = np.empty(shape)
    for p, (plan, inv_vars) in enumerate(zip(ens.plans, ens.inv_vars)):
        hard, valids[p], iters[p] = bp_min_sum_batch(
            ens.graph, plan.apply(llrs), cfg)
        hards[p] = np.bitwise_xor.reduce(
            np.pad(hard, ((0, 0), (0, 1)))[:, inv_vars], axis=2)
        corrs[p] = decoders._correlation(hards[p], llrs)
    score = np.where(valids == valids.any(axis=0), corrs, -np.inf)
    pick = score.argmax(axis=0), np.arange(shape[1])
    return hards[pick], valids[pick], iters[pick], pick[0], corrs[pick]


def assert_same_outputs(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def random_codeword_llrs(code, frames, ebn0_db, seed):
    rng = np.random.default_rng(seed)
    sent = code.encode(rng.integers(0, 2, size=(frames, code.k)))
    return awgn_llr_batch(sent, ebn0_db, code.rate, rng)


# (32,16,10) constructions of distance 6, 5 and 1
@pytest.mark.parametrize("seed,d", [(6, 6), (3, 5), (0, 1)])
def test_gaed_skip_matches_full_evaluation(seed, d):
    res = construct_code_with_automorphism(32, 16, 10, seed=seed)
    cfg = BpConfig(iterations=10)
    # (1, 0, -1): path 0 is not the identity
    for powers in ((0, 1, -1), (1, 0, -1)):
        ens = GaedEnsemble(res.code, power_ensemble(res.aut, powers))
        assert ens.d == d
        for ebn0 in (1.0, 2.0, 3.0, 4.0, 5.0):
            llrs = random_codeword_llrs(res.code, 1024, ebn0, seed)
            # integer LLRs force correlation ties between paths
            for batch in (llrs, np.round(llrs)):
                assert_same_outputs(ens.decode_batch(batch, cfg),
                                    full_gaed_decode_batch(ens, batch, cfg))


def test_gaed_falls_back_to_distance_one(monkeypatch):
    def too_large(code):
        raise ValueError("instance too large")

    monkeypatch.setattr(codes, "min_distance", too_large)
    res = construct_code_with_automorphism(32, 16, 10, seed=6)
    ens = GaedEnsemble(res.code, power_ensemble(res.aut))
    assert ens.d == res.code.distance_bound() == 1
    cfg = BpConfig(iterations=10)
    for ebn0 in (3.0, 5.0):
        llrs = random_codeword_llrs(res.code, 1024, ebn0, 7)
        for batch in (llrs, np.round(llrs)):
            assert_same_outputs(ens.decode_batch(batch, cfg),
                                full_gaed_decode_batch(ens, batch, cfg))


def test_distance_is_enumerated_once_per_code(monkeypatch):
    real = codes.min_distance
    calls = []

    def counting(code):
        calls.append(code)
        return real(code)

    monkeypatch.setattr(codes, "min_distance", counting)
    res = construct_code_with_automorphism(32, 16, 10, seed=6)
    llrs = random_codeword_llrs(res.code, 64, 3.0, 6)
    for _ in range(2):
        assert GaedEnsemble(res.code, power_ensemble(res.aut)).d == 6
        osd_decode_batch(res.code, llrs, 2)
    assert calls == [res.code]


def hamming_ensemble():
    code = LinearCode.from_pcm(HAMMING_74_H)
    ens = GaedEnsemble(code, [GeneralizedAutomorphism.identity(code.n)])
    assert ens.d == 3
    return ens


def test_certificate_demands_a_strict_margin():
    ens = hamming_ensemble()
    # the word is 0000000 and 1110000 is a codeword, so each row's first
    # three |LLR| decide: with E = {0}, 1110000 ties 0 when |LLR_1| +
    # |LLR_2| = |LLR_0|; with E empty, when LLR_0..2 are all zero
    llrs = np.array([
        [-2.0, 1.0, 1.0, 5.0, 5.0, 5.0, 5.0],          # an exact tie
        [-2.0, 1.0, 1.0 + 1e-12, 5.0, 5.0, 5.0, 5.0],  # inside the margin
        [-2.0, 1.0, 1.5, 5.0, 5.0, 5.0, 5.0],          # beyond it
        [0.0, 0.0, 0.0, 5.0, 5.0, 5.0, 5.0],           # an exact tie
        [1e-12, 1e-12, 1e-12, 5.0, 5.0, 5.0, 5.0],     # inside the margin
        [1e-6, 1e-6, 1e-6, 5.0, 5.0, 5.0, 5.0],        # beyond it
    ])
    zero = np.zeros(llrs.shape, dtype=np.uint8)
    assert certified_ml(llrs, zero, ens.d).tolist() == \
        [False, False, True, False, False, True]


def test_certificate_refuses_d_or_more_disagreements():
    ens = hamming_ensemble()
    # the valid word 0000000 against hard decisions 3 and 4 places away,
    # with every other |LLR| at the clamp
    llrs = np.full((2, 7), LLR_CLAMP)
    llrs[0, :3] = llrs[1, :4] = -1e-3
    zero = np.zeros(llrs.shape, dtype=np.uint8)
    assert not certified_ml(llrs, zero, ens.d).any()
    # E may hold zero LLRs: the word 1111000 against the hard decision 0
    word = np.array([[1, 1, 1, 1, 0, 0, 0]], dtype=np.uint8)
    llrs = np.array([[0.0, 0.0, 0.0, 0.0, 9.0, 9.0, 9.0]])
    assert not certified_ml(llrs, word, ens.d).any()


def test_certified_words_are_the_unique_ml_codewords():
    # the (16,8,4) construction of seed 9 has distance 3 and 256 codewords
    res = construct_code_with_automorphism(16, 8, 4, seed=9)
    ens = GaedEnsemble(res.code, power_ensemble(res.aut))
    assert ens.d == 3
    signs = 1.0 - 2.0 * res.code.codeword_table()
    llrs = random_codeword_llrs(res.code, 4096, 2.0, 9)
    for batch in (llrs, np.round(llrs)):
        hard, valid, *_ = ens._decode_path(0, batch, BpConfig(iterations=5))
        cert = valid & certified_ml(batch, hard, ens.d)
        assert 0 < cert.sum() < len(batch)
        corr = np.sort(batch[cert] @ signs.T, axis=1)
        assert np.all(corr[:, -2] < corr[:, -1])
        assert np.array_equal(ml_decode_batch(res.code, batch[cert]),
                              hard[cert])


def test_later_paths_decode_only_uncertified_frames(monkeypatch):
    res = construct_code_with_automorphism(32, 16, 10, seed=6)
    ens = GaedEnsemble(res.code, power_ensemble(res.aut))
    cfg = BpConfig(iterations=10)
    seen = []

    def counting(graph, llrs, cfg):
        seen.append(llrs)
        return bp_min_sum_batch(graph, llrs, cfg)

    monkeypatch.setattr(decoders, "bp_min_sum_batch", counting)
    rng = np.random.default_rng(12)
    sent = res.code.encode(rng.integers(0, 2, size=(256, res.code.k)))
    ens.decode_batch((1.0 - 2.0 * sent) * 4.0, cfg)
    assert [len(x) for x in seen] == [256, 0, 0]
    llrs = random_codeword_llrs(res.code, 2048, 3.0, 12)
    hard, valid, *_ = ens._decode_path(0, llrs, cfg)
    cert = certified_ml(llrs, hard, ens.d)
    # a word that is not a codeword is never certified: here some pass
    # the test and must still go to the later paths
    assert (cert & ~valid).any()
    rest = ~(valid & cert)
    assert 0 < rest.sum() < len(llrs)
    seen.clear()
    ens.decode_batch(llrs, cfg)
    assert len(seen) == 3 and np.array_equal(seen[0], ens.plans[0].apply(llrs))
    for plan, got in zip(ens.plans[1:], seen[1:]):
        assert np.array_equal(got, plan.apply(llrs[rest]))


# -- redundant-row stacks ----------------------------------------------------

def test_stack_redundant_pcm_shape_and_span():
    code, _ = built_pair()
    r = code.n - code.k
    words = sorted({w for w in code.h} |
                   {code.h.row_bits(i) ^ code.h.row_bits(j)
                    for i in range(r) for j in range(i + 1, r)},
                   key=lambda w: (w.bit_count(), w))
    pool = DualWordPool(tuple(words), code.n)
    ell = len(words) // r
    assert ell >= 2
    stacked = stack_redundant_pcm(code, pool, ell)
    assert stacked.rows == ell * r
    assert rank(stacked) == r
    rows = list(stacked)
    assert rows == sorted(rows, key=lambda w: (w.bit_count(), w))
    assert (code.g @ stacked.transpose()).is_zero()


def test_redundant_stack_of_h_itself_reproduces_bp():
    code, _ = built_pair()
    rows = sorted(code.h, key=lambda w: (w.bit_count(), w))
    pool = DualWordPool(tuple(rows), code.n)
    stacked = stack_redundant_pcm(code, pool, 1)
    assert stacked == code.h   # optimize_pcm already emits sorted rows
    frames = awgn_llr_batch(np.zeros((40, code.n), dtype=np.uint8), 2.0, 0.5,
                            np.random.default_rng(12))
    cfg = BpConfig(iterations=10)
    a = bp_min_sum_batch(TannerGraph.from_pcm(stacked), frames, cfg)
    b = bp_min_sum_batch(TannerGraph.from_pcm(code.h), frames, cfg)
    for got, want in zip(a, b):
        assert np.array_equal(got, want)


def test_stack_redundant_pcm_errors():
    code, _ = built_pair()
    r = code.n - code.k
    rows = tuple(sorted(code.h, key=lambda w: (w.bit_count(), w)))
    pool = DualWordPool(rows, code.n)
    with pytest.raises(ValueError, match="ell"):
        stack_redundant_pcm(code, pool, 0)
    with pytest.raises(ValueError, match="need"):
        stack_redundant_pcm(code, pool, 2)
    # spanning failure: enough words, all inside an (r-1)-dimensional subspace
    thin_words = set()
    for mask in range(1, 1 << (r - 1)):
        w = 0
        for i in range(r - 1):
            if (mask >> i) & 1:
                w ^= rows[i]
        thin_words.add(w)
    assert len(thin_words) >= r
    deps = DualWordPool(tuple(sorted(thin_words,
                                     key=lambda w: (w.bit_count(), w))),
                        code.n)
    with pytest.raises(ValueError, match="span"):
        stack_redundant_pcm(code, deps, 1)
    # words outside the dual code: random words, and another code's dual
    rng = np.random.default_rng(31)
    noise = DualWordPool(tuple(int(w) for w in
                               rng.integers(1, 1 << code.n, size=4 * r)),
                         code.n)
    with pytest.raises(ValueError, match="outside the dual"):
        stack_redundant_pcm(code, noise, 2)
    other, _ = built_pair(seed=7)
    foreign = DualWordPool(tuple(other.h), other.n)
    assert other.n == code.n and other.h != code.h
    with pytest.raises(ValueError, match="outside the dual"):
        stack_redundant_pcm(code, foreign, 1)
    # a pool built for another length
    wide = DualWordPool(tuple(w << 1 for w in rows), code.n + 1)
    with pytest.raises(ValueError, match="length"):
        stack_redundant_pcm(code, wide, 1)


# -- OSD and ML ---------------------------------------------------------------

def test_osd_zero_order_noiseless_recovers_codeword():
    code = LinearCode.from_pcm(HAMMING_74_H)
    rng = np.random.default_rng(80)
    cws = code.encode(rng.integers(0, 2, size=(20, 4), dtype=np.uint8))
    hard, _ = osd_decode_batch(code, (1.0 - 2.0 * cws) * 9.0, 0)
    assert np.array_equal(hard, cws)


def test_osd_outputs_codewords_and_improves_with_order():
    code = LinearCode.from_pcm(HAMMING_74_H)
    rng = np.random.default_rng(81)
    frames = awgn_llr_batch(np.zeros((100, 7), dtype=np.uint8), 0.5, 4 / 7, rng)
    prev = None
    for order in (0, 1, 2, 3):
        hard, corrs = osd_decode_batch(code, frames, order)
        assert not (hard @ code.h.to_numpy().T % 2).any()
        if prev is not None:
            assert np.all(corrs >= prev - 1e-12)
        prev = corrs


def test_correlation_is_the_signed_float_sum():
    """`codes._correlation`, the score of GAED, OSD and BP records, is bit
    for bit the float sum of (1 - 2h) * x over C-ordered rows, signed zeros
    included, whatever the layout of its inputs (the inverse map's words
    are not C-ordered)."""
    rng = np.random.default_rng(5)
    for shape in ((0, 7), (1, 7), (9, 70), (300, 33)):
        llrs = rng.normal(size=shape) * 3.0
        llrs[rng.random(shape) < 0.1] = 0.0
        llrs[rng.random(shape) < 0.1] = -0.0
        hard = (rng.random(shape) < 0.3).astype(np.uint8)
        want = ((1.0 - 2.0 * hard) * llrs).sum(axis=1).view(np.uint64)
        for h in (hard, np.asfortranarray(hard), hard.T.copy().T):
            for x in (llrs, np.asfortranarray(llrs)):
                got = codes._correlation(h, x)
                assert got.dtype == np.float64
                assert np.array_equal(got.view(np.uint64), want)


def test_osd_full_order_matches_ml_correlation():
    rng = np.random.default_rng(82)
    code = random_code(rng, 8, 4)
    frames = awgn_llr_batch(np.zeros((100, 8), dtype=np.uint8), 1.0, 0.5, rng)
    _, osd_corr = osd_decode_batch(code, frames, code.k)
    ml_corr = ((1.0 - 2.0 * ml_decode_batch(code, frames)) * frames).sum(axis=1)
    assert osd_corr == pytest.approx(ml_corr, abs=1e-9)


def test_osd_never_beats_ml():
    rng = np.random.default_rng(83)
    code = random_code(rng, 12, 6)
    frames = awgn_llr_batch(np.zeros((200, 12), dtype=np.uint8), 1.0, 0.5, rng)
    mls = ml_decode_batch(code, frames)
    ml_corr = ((1.0 - 2.0 * mls) * frames).sum(axis=1)
    _, osd_corr = osd_decode_batch(code, frames, 2)
    assert np.all(osd_corr <= ml_corr + 1e-9)


def gauss_jordan_osd(code: LinearCode, vals: np.ndarray, order: int):
    """The numpy Gauss-Jordan OSD of one frame that the batched OSD
    replaced, kept as oracle. Returns (hard bits, correlation).
    """
    perm = np.argsort(-np.abs(vals), kind="stable")
    work = code.g_numpy()[:, perm].copy()
    k, n = work.shape
    basis_cols = []
    r = 0
    for col in range(n):
        if r == k:
            break
        hit = np.flatnonzero(work[r:, col]) + r
        if hit.size == 0:
            continue
        if hit[0] != r:
            work[[r, hit[0]]] = work[[hit[0], r]]
        others = np.flatnonzero(work[:, col])
        for row in others:
            if row != r:
                work[row] ^= work[r]
        basis_cols.append(col)
        r += 1
    assert r == k
    hard_sorted = (vals[perm] < 0).astype(np.uint8)
    base = (hard_sorted[basis_cols].astype(np.int32) @ work.astype(np.int32)
            & 1).astype(np.uint8)
    weights = vals[perm]
    best_cand = base
    best_corr = float(((1.0 - 2.0 * base) * weights).sum())
    for w in range(1, order + 1):
        combos = np.array(list(itertools.combinations(range(k), w)),
                          dtype=np.int64).reshape(-1, w)
        if not combos.size:
            continue
        flips = work[combos[:, 0]]
        for c in range(1, combos.shape[1]):
            flips = flips ^ work[combos[:, c]]
        cands = base[None, :] ^ flips
        corrs = (1.0 - 2.0 * cands.astype(np.float64)) @ weights
        top = int(corrs.argmax())
        if corrs[top] > best_corr:
            best_corr = float(corrs[top])
            best_cand = cands[top]
    out = np.empty(n, dtype=np.uint8)
    out[perm] = best_cand
    return out, best_corr


def test_osd_matches_gauss_jordan_oracle():
    rng = np.random.default_rng(84)
    shapes = [(2, 1), (9, 1), (9, 8), (16, 15), (12, 6), (24, 12)]
    shapes += [(int(n), int(rng.integers(1, n)))
               for n in rng.integers(4, 40, size=24)]
    for n, k in shapes:
        code = random_code(rng, n, n - k)
        other = (BitMatrix.random_invertible(k, rng) @ code.g
                 if rng.integers(0, 2) else None)
        awgn = awgn_llr_batch(np.zeros((6, n), dtype=np.uint8), 1.0, k / n, rng)
        # small integers: tied reliabilities and zero LLRs
        ties = rng.integers(-3, 4, size=(6, n)).astype(np.float64)
        frames = np.concatenate((awgn, ties))
        if other is not None:
            # another basis of the same code: the reduced form must not care
            perm = np.argsort(-np.abs(frames), axis=1, kind="stable")
            for got, want in zip(osd._osd_reduce(other.to_numpy(), perm),
                                 osd._osd_reduce(code.g_numpy(), perm)):
                assert np.array_equal(got, want), (n, k)
        for row in frames:
            for order in range(4):
                hard, corr = osd_decode_batch(code, row[None, :], order)
                want_bits, want_corr = gauss_jordan_osd(code, row, order)
                assert np.array_equal(hard[0], want_bits), (n, k, order)
                assert corr[0] == want_corr, (n, k, order)


def per_frame_osd(code: LinearCode, vals: np.ndarray, order: int):
    """The one-frame OSD that osd_decode_batch replaced, kept as oracle.

    Information set from independent_rows over G's columns in reliability
    order, reduced generator from invert. Returns (hard bits, correlation).
    """
    perm = np.argsort(-np.abs(vals), kind="stable")
    cols = list(code.g.transpose())
    k = code.k
    info = [int(perm[i]) for i in
            itertools.islice(independent_rows(cols[j] for j in perm), k)]
    work = (invert(code.g.take_cols(info)) @ code.g).to_numpy()[:, perm]
    hard = (vals < 0).astype(np.uint8)
    weights = vals[perm]
    base = (hard[info].astype(np.int32) @ work.astype(np.int32)
            & 1).astype(np.uint8)
    best_cand = base
    best_corr = float(((1.0 - 2.0 * base) * weights).sum())
    for w in range(1, order + 1):
        combos = np.array(list(itertools.combinations(range(k), w)),
                          dtype=np.int64).reshape(-1, w)
        if not combos.size:
            continue
        flips = work[combos[:, 0]]
        for c in range(1, combos.shape[1]):
            flips = flips ^ work[combos[:, c]]
        cands = base[None, :] ^ flips
        corrs = (1.0 - 2.0 * cands.astype(np.float64)) @ weights
        top = int(corrs.argmax())
        if corrs[top] > best_corr:
            best_corr = float(corrs[top])
            best_cand = cands[top]
    out = np.empty(code.n, dtype=np.uint8)
    out[perm] = best_cand
    return out, best_corr


def _pattern_bits(k: int, n: int, order: int) -> int:
    """Candidate bits of the widest flip-pattern group for one frame."""
    return max((math.comb(k, w) for w in range(1, order + 1)), default=0) * n


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
# the widest cases, which random draws rarely reach
@example(seed=1, n=40, k_frac=1.0, order=4, frames=3, ties=False,
         per_block=None)
@example(seed=2, n=40, k_frac=1.0, order=4, frames=2, ties=True,
         per_block=None)
@example(seed=3, n=40, k_frac=0.5, order=4, frames=9, ties=False,
         per_block=2)
@example(seed=4, n=24, k_frac=0.5, order=3, frames=5, ties=True,
         per_block=0)
@example(seed=5, n=33, k_frac=0.9, order=3, frames=7, ties=False,
         per_block=3)
# codewords longer than one 64-bit word
@example(seed=6, n=90, k_frac=0.5, order=2, frames=4, ties=False,
         per_block=None)
@example(seed=7, n=130, k_frac=0.3, order=2, frames=3, ties=True,
         per_block=1)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
       k_frac=st.floats(0.0, 1.0), order=st.integers(0, 4),
       frames=st.integers(1, 9), ties=st.booleans(),
       per_block=st.sampled_from([None, 1, 2, 3, 0]))
def test_osd_batch_matches_per_frame_oracles(seed, n, k_frac, order, frames,
                                             ties, per_block):
    rng = np.random.default_rng(seed)
    k = min(n - 1, 1 + int(k_frac * (n - 1)))
    code = random_code(rng, n, n - k)
    if ties:
        # small integers: tied reliabilities, zero LLRs and tied scores
        llrs = rng.integers(-3, 4, size=(frames, n)).astype(np.float64)
    else:
        llrs = awgn_llr_batch(np.zeros((frames, n), dtype=np.uint8), 1.0,
                              k / n, rng)
    widest = _pattern_bits(k, n, order)
    budget = osd._OSD_CELL_BUDGET
    if widest and per_block:
        # blocks of per_block frames: the frame count is often not a multiple
        budget = per_block * widest
    elif widest and per_block == 0:
        # the widest pattern group split into about three chunks
        budget = max(n, widest // 3)
    with mock.patch.object(osd, "_OSD_CELL_BUDGET", budget):
        hard, corr = osd_decode_batch(code, llrs, order)
    # a split group is scored by one matrix-vector product per chunk, whose
    # float rounding may differ from one product over the whole group
    exact = ties or widest <= budget
    for f in range(frames):
        for oracle in (gauss_jordan_osd, per_frame_osd):
            want_bits, want_corr = oracle(code, llrs[f], order)
            assert np.array_equal(hard[f], want_bits), (oracle, f)
            if exact:
                assert corr[f] == want_corr, (oracle, f)
            else:
                assert corr[f] == pytest.approx(want_corr, rel=1e-12)


def test_osd_tie_across_pattern_chunks_keeps_the_earlier():
    code = LinearCode.from_pcm(HAMMING_74_H)
    llrs = np.array([[1.0, 3.0, -2.0, 0.0, 1.0, -1.0, 1.0]])
    earlier = np.array([1, 0, 1, 1, 0, 1, 0], dtype=np.uint8)
    later = np.array([0, 0, 1, 0, 1, 1, 0], dtype=np.uint8)
    for cw in (earlier, later):
        assert not (HAMMING_74_H.to_numpy() @ cw % 2).any()
        assert ((1.0 - 2.0 * cw) * llrs[0]).sum() == 7.0
    # weight-1 flips of information positions 2 and 3 both reach 7; the
    # base scores 5. A budget of n bits puts each pattern in its own chunk.
    with mock.patch.object(osd, "_OSD_CELL_BUDGET", code.n):
        split = osd_decode_batch(code, llrs, 1)
    whole = osd_decode_batch(code, llrs, 1)
    for hard, corr in (split, whole):
        assert np.array_equal(hard[0], earlier)
        assert corr[0] == 7.0
    assert np.array_equal(per_frame_osd(code, llrs[0], 1)[0], earlier)


def osd_base_certified(code, llrs):
    """The LLRs sorted as `osd_decode_batch` sorts them, and which frames'
    base candidates pass `certified_ml` in those coordinates."""
    perm = np.argsort(-np.abs(llrs), axis=1, kind="stable")
    w = np.take_along_axis(llrs, perm, axis=1)
    base = np.take_along_axis(osd_decode_batch(code, llrs, 0)[0], perm, axis=1)
    return w, certified_ml(w, base, code.distance_bound())


def full_osd_decode_batch(code: LinearCode, llrs: np.ndarray, order: int):
    """`osd_decode_batch` searching the flip patterns on every frame,
    certified or not: the oracle of the skip."""
    llrs = check_llr_batch(llrs, code.n)
    frames, n = llrs.shape
    perm = np.argsort(-np.abs(llrs), axis=1, kind="stable")
    w = np.take_along_axis(llrs, perm, axis=1)
    rows, info = osd._osd_reduce(code.g_numpy(), perm)
    hard_info = np.take_along_axis(w < 0, info, axis=1)
    best = np.bitwise_xor.reduce(
        np.where(hard_info[:, :, None], rows, np.uint64(0)), axis=1)
    best_corr = ((1.0 - 2.0 * words_to_bits(best, n)) * w).sum(axis=1)
    base = best.copy()
    groups = osd._flip_patterns(code.k, order)
    if groups:
        block = max(1, osd._OSD_CELL_BUDGET // (max(map(len, groups)) * n))
        for lo in range(0, frames, block):
            fs = slice(lo, lo + block)
            osd._osd_block(rows[fs], base[fs], w[fs], groups, best[fs],
                           best_corr[fs])
    hard = np.empty((frames, n), dtype=np.uint8)
    np.put_along_axis(hard, perm, words_to_bits(best, n), axis=1)
    return hard, best_corr


def test_osd_builds_each_pattern_chunk_once_per_block():
    """One pass: each chunk of flip patterns is built once per frame block,
    also on the frames where it is scored exactly."""
    code = construct_code_with_automorphism(32, 16, 10, seed=6).code
    rng = np.random.default_rng(97)
    llrs = awgn_llr_batch(np.zeros((40, code.n), dtype=np.uint8), 1.0,
                          code.rate, rng)
    want, want_corr = osd_decode_batch(code, llrs, 3)
    real = osd._candidates
    # only the frames whose base is not certified are searched
    searched = int((~osd_base_certified(code, llrs)[1]).sum())
    assert 0 < searched < 40
    # order 3 on k = 16: groups of 16, 120 and 560 patterns. A budget of
    # 4 * 560 * n bits makes 4-frame blocks; one of 200 * n bits makes
    # 1-frame blocks and splits the widest group into three chunks.
    for budget, block, chunks in ((4 * 560 * code.n, 4, (16, 120, 560)),
                                  (200 * code.n, 1, (16, 120, 200, 200, 160))):
        blocks = [min(block, searched - lo)
                  for lo in range(0, searched, block)]
        calls = []

        def counting(rows, base, combos):
            calls.append((rows.shape[0], len(combos)))
            return real(rows, base, combos)

        with mock.patch.object(osd, "_candidates", counting), \
                mock.patch.object(osd, "_OSD_CELL_BUDGET", budget):
            hard, corr = osd_decode_batch(code, llrs, 3)
        assert calls == [(b, c) for b in blocks for c in chunks]
        assert np.array_equal(hard, want)
        # a split group's products round differently from the whole group's
        assert np.allclose(corr, want_corr, rtol=1e-12, atol=0)


# (32,16,10) constructions of distance 6, 5 and 1
@pytest.mark.parametrize("seed,d", [(6, 6), (3, 5), (0, 1)])
def test_osd_skip_matches_full_search(seed, d):
    code = construct_code_with_automorphism(32, 16, 10, seed=seed).code
    assert code.distance_bound() == d
    # the default budget, and one that splits the widest group into chunks
    for budget in (osd._OSD_CELL_BUDGET, 200 * code.n):
        with mock.patch.object(osd, "_OSD_CELL_BUDGET", budget):
            for ebn0 in (1.0, 2.0, 3.0, 4.0, 5.0):
                llrs = random_codeword_llrs(code, 256, ebn0, seed)
                # integer LLRs force correlation ties between candidates
                for batch in (llrs, np.round(llrs)):
                    for order in range(4):
                        assert_same_outputs(
                            osd_decode_batch(code, batch, order),
                            full_osd_decode_batch(code, batch, order))


def test_osd_searches_only_uncertified_frames():
    code = construct_code_with_automorphism(32, 16, 10, seed=6).code
    assert code.distance_bound() == 6
    real = osd._osd_block
    seen = []

    def counting(rows, base, w, groups, best, best_corr):
        seen.append(w.copy())
        real(rows, base, w, groups, best, best_corr)

    rng = np.random.default_rng(13)
    sent = code.encode(rng.integers(0, 2, size=(256, code.k)))
    llrs = random_codeword_llrs(code, 2048, 3.0, 13)
    with mock.patch.object(osd, "_osd_block", counting):
        osd_decode_batch(code, (1.0 - 2.0 * sent) * 4.0, 3)
        assert seen == []
        for batch in (llrs, np.round(llrs)):
            seen.clear()
            osd_decode_batch(code, batch, 3)
            w, cert = osd_base_certified(code, batch)
            assert 0 < cert.sum() < len(batch)
            assert np.array_equal(np.concatenate(seen), w[~cert])


def test_osd_certified_frames_are_ml_decisions():
    # the (16,8,4) construction of seed 9 has distance 3 and 256 codewords
    code = construct_code_with_automorphism(16, 8, 4, seed=9).code
    assert code.distance_bound() == 3
    llrs = random_codeword_llrs(code, 4096, 2.0, 9)
    for batch in (llrs, np.round(llrs)):
        cert = osd_base_certified(code, batch)[1]
        assert 0 < cert.sum() < len(batch)
        ml = ml_decode_batch(code, batch[cert])
        for order in range(4):
            hard = osd_decode_batch(code, batch, order)[0]
            assert np.array_equal(hard[cert], ml)


def test_osd_batch_bounds_memory_at_large_k():
    """k = 120 at order 3 is 280 840 patterns a frame; one float64 row per
    pattern, as the per-frame decoder built, would be 288 MB."""
    rng = np.random.default_rng(90)
    code = random_code(rng, 128, 8)
    llrs = awgn_llr_batch(np.zeros((2, 128), dtype=np.uint8), 3.0,
                          code.rate, rng)
    tracemalloc.start()
    try:
        hard, corr = osd_decode_batch(code, llrs, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert not (hard.astype(np.int64) @ code.h_numpy().T % 2).any()
    assert np.allclose(corr, ((1.0 - 2.0 * hard) * llrs).sum(axis=1))
    assert np.all(corr >= osd_decode_batch(code, llrs, 0)[1])


def test_osd_batch_is_independent_of_how_frames_are_batched():
    # k = 16 at order 3 scores 14 frames a block: the parts below and
    # their concatenation put frames in different blocks
    code = construct_code_with_automorphism(32, 16, 10, seed=6).code
    rng = np.random.default_rng(96)
    sizes = (1, 5, 14, 23, 9)
    llrs = awgn_llr_batch(np.zeros((sum(sizes), code.n), dtype=np.uint8),
                          2.0, code.rate, rng)
    hard, corr = osd_decode_batch(code, llrs, 3)
    lo = 0
    for size in sizes:
        part_hard, part_corr = osd_decode_batch(code, llrs[lo:lo + size], 3)
        assert np.array_equal(part_hard, hard[lo:lo + size])
        assert np.array_equal(part_corr, corr[lo:lo + size])
        lo += size


def test_osd_batch_empty_and_single_row_agree_with_osd_decode():
    code = LinearCode.from_pcm(HAMMING_74_H)
    hard, corr = osd_decode_batch(code, np.zeros((0, 7)), 2)
    assert hard.shape == (0, 7) and hard.dtype == np.uint8
    assert corr.shape == (0,)
    rng = np.random.default_rng(91)
    frames = awgn_llr_batch(np.zeros((5, 7), dtype=np.uint8), 2.0, 4 / 7, rng)
    hard, corr = osd_decode_batch(code, frames, 2)
    for f in range(5):
        one = osd_decode(code, LlrVector(frames[f]), 2)
        assert np.array_equal(one.hard_bits, hard[f])
        assert one.correlation == corr[f]
        assert one.is_codeword and one.iterations_used == 0


def test_osd_validation():
    code = LinearCode.from_pcm(HAMMING_74_H)
    with pytest.raises(ValueError, match="order"):
        osd_decode(code, LlrVector(np.ones(7)), -1)
    with pytest.raises(ValueError, match="length"):
        osd_decode(code, LlrVector(np.ones(6)), 1)
    good = np.ones((3, 7))
    with pytest.raises(ValueError, match="order"):
        osd_decode_batch(code, good, -1)
    # a generator with dependent rows has no information set of size k
    g = code.g.to_numpy()
    g[1] = g[0]
    with pytest.raises(ValueError, match="rank deficient"):
        osd._osd_reduce(g, np.arange(7)[None, :])


@pytest.mark.parametrize("call, name", [
    (lambda: construct_code_with_automorphism(16.0, 8, 4, seed=1), "n"),
    (lambda: construct_code_with_automorphism(16, "8", 4, seed=1), "k"),
    (lambda: construct_code_with_automorphism(16, 8, True, seed=1),
     "delta_obj"),
    (lambda: construct_code_with_automorphism(16, 8, 4, seed=1.0), "seed"),
    (lambda: construct_code_with_automorphism(16, 8, 4, seed=1,
                                              max_resamples=2.5),
     "max_resamples"),
    (lambda: osd_decode_batch(LinearCode(HAMMING_74_H), np.ones((2, 7)),
                              True), "order"),
    (lambda: osd_decode_batch(LinearCode(HAMMING_74_H), np.ones((2, 7)),
                              1.0), "order"),
])
def test_counts_must_be_integers(call, name):
    # a float count would fail inside numpy or range, and True run as 1
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call()


def _h74_pool():
    return codes.low_weight_dual_search(LinearCode(HAMMING_74_H), 7)


@pytest.mark.parametrize("call, message", [
    # each bound's message names the argument and ends in its value
    (lambda: BpConfig(iterations=0), "iterations must be at least 1, got 0"),
    (lambda: osd_decode_batch(LinearCode(HAMMING_74_H), np.ones((2, 7)), -1),
     "order must be non-negative, got -1"),
    (lambda: construct_code_with_automorphism(8, 4, -1, seed=0),
     "delta_obj must be non-negative, got -1"),
    (lambda: construct_code_with_automorphism(8, 4, 0, seed=0,
                                              max_resamples=0),
     "max_resamples must be at least 1, got 0"),
    # public entries that raised a bare TypeError or ran True as 1
    (lambda: stack_redundant_pcm(LinearCode(HAMMING_74_H), _h74_pool(), 2.5),
     "ell must be an integer, got 2.5"),
    (lambda: stack_redundant_pcm(LinearCode(HAMMING_74_H), _h74_pool(), True),
     "ell must be an integer, got True"),
    (lambda: stack_redundant_pcm(LinearCode(HAMMING_74_H), _h74_pool(), 0),
     "ell must be at least 1, got 0"),
    (lambda: codes.low_weight_dual_search(LinearCode(HAMMING_74_H), 2.5),
     "target_count must be an integer, got 2.5"),
    (lambda: codes.low_weight_dual_search(LinearCode(HAMMING_74_H), True),
     "target_count must be an integer, got True"),
    (lambda: codes.low_weight_dual_search(LinearCode(HAMMING_74_H), 0),
     "target_count must be at least 1, got 0"),
    (lambda: codes.low_weight_dual_search(LinearCode(HAMMING_74_H), 4,
                                          seed=1.5),
     "seed must be an integer, got 1.5"),
    (lambda: codes.low_weight_dual_search(LinearCode(HAMMING_74_H), 4,
                                          seed=-1),
     "seed must be non-negative, got -1"),
    (lambda: codes.optimize_pcm(LinearCode(HAMMING_74_H), _h74_pool(),
                                seed=True),
     "seed must be an integer, got True"),
    (lambda: codes.optimize_pcm(LinearCode(HAMMING_74_H), _h74_pool(),
                                seed=-1),
     "seed must be non-negative, got -1"),
    (lambda: sample_sparse_invertible(4.0, 6, 0),
     "n must be an integer, got 4.0"),
    (lambda: sample_sparse_invertible(True, 1, 0),
     "n must be an integer, got True"),
    (lambda: sample_sparse_invertible(-1, 0, 0),
     "n must be non-negative, got -1"),
    (lambda: sample_sparse_invertible(4, 6.5, 0),
     "omega_obj must be an integer, got 6.5"),
    (lambda: power_ensemble(GeneralizedAutomorphism.identity(7), 5),
     "powers must be a sequence, got 5"),
    (lambda: power_ensemble(GeneralizedAutomorphism.identity(7), "01"),
     "powers must be a sequence, got '01'"),
    (lambda: power_ensemble(GeneralizedAutomorphism.identity(7), (0, 1.5)),
     "powers must be integers, got (0, 1.5)"),
    (lambda: power_ensemble(GeneralizedAutomorphism.identity(7), (0, True)),
     "powers must be integers, got (0, True)"),
    # bottom-layer counts that raised a bare TypeError or AttributeError,
    # or were accepted silently
    (lambda: BitMatrix((1,), 2.5), "cols must be an integer, got 2.5"),
    (lambda: BitMatrix((), -1), "cols must be non-negative, got -1"),
    (lambda: BitMatrix.identity(2.0), "n must be an integer, got 2.0"),
    (lambda: BitMatrix.identity(3).power(1.5),
     "e must be an integer, got 1.5"),
    (lambda: BitMatrix.identity(3).power(-1), "e must be non-negative, got -1"),
    (lambda: Gf2Poly(3) ** 1.5, "e must be an integer, got 1.5"),
    (lambda: Gf2Poly(1.5), "bits must be an integer, got 1.5"),
    (lambda: Gf2Poly(True), "bits must be an integer, got True"),
    (lambda: Gf2Poly(-1), "bits must be non-negative, got -1"),
    (lambda: DualWordPool((1,), 4.5), "n must be an integer, got 4.5"),
    (lambda: DualWordPool((1.5,), 4), "pool word must be an integer, got 1.5"),
])
def test_counts_fail_by_name_and_value(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_ml_decode_is_argmax_over_the_table():
    rng = np.random.default_rng(84)
    code = random_code(rng, 10, 5)
    table = code.codeword_table()
    signs = 1.0 - 2.0 * table.astype(np.float64)
    frames = awgn_llr_batch(np.zeros((50, 10), dtype=np.uint8), 0.0, 0.5, rng)
    batch = ml_decode_batch(code, frames)
    for i in range(frames.shape[0]):
        assert np.array_equal(ml_decode_batch(code, frames[i:i + 1])[0],
                              batch[i])
        corr = ((1.0 - 2.0 * batch[i]) * frames[i]).sum()
        all_corrs = signs @ frames[i]
        assert corr == pytest.approx(float(all_corrs.max()), abs=1e-12)
    hamming = LinearCode.from_pcm(HAMMING_74_H)
    assert ml_decode_batch(hamming, np.full((1, 7), -3.0)).tolist() == \
        [[1] * 7]


def test_bp_and_gaed_reject_non_finite_llrs():
    # a NaN compares false everywhere, so BP used to return the all-zero
    # word as a valid codeword for an all-NaN frame or one NaN among -3.0s
    code, aut = built_pair()
    graph = TannerGraph.from_pcm(code.h)
    # with no identity path, box-plus turns an infinity at column 5 finite
    # before BP sees it: every row of T that reads column 5 reads another
    t = aut.matrix.to_numpy().astype(bool)
    assert (t.sum(axis=1)[t[:, 5]] > 1).all()
    ensembles = [GaedEnsemble(code, power_ensemble(aut, powers))
                 for powers in ((0, 1, -1), (1,))]
    cfg = BpConfig(iterations=10)
    for value in (np.nan, np.inf, -np.inf):
        one_bad = np.full((3, code.n), -3.0)
        one_bad[1, 5] = value
        for llrs in (np.full((2, code.n), value), one_bad):
            with pytest.raises(ValueError, match="llrs"):
                bp_min_sum_batch(graph, llrs, cfg)
            for ens in ensembles:
                with pytest.raises(ValueError, match="llrs"):
                    ens.decode_batch(llrs, cfg)
    # finite values beyond the clamp are rejected; the clamp saturates
    with pytest.raises(ValueError, match="exceeds the clamp"):
        bp_min_sum_batch(graph, np.full((1, code.n), 4 + LLR_CLAMP), cfg)
    hard, valid, iters = bp_min_sum_batch(
        graph, np.full((1, code.n), LLR_CLAMP), cfg)
    assert valid[0] and not hard.any() and iters[0] == 1


def test_ml_decode_batch_rejects_non_finite_llrs():
    # argmax over a row of NaN correlations picks index 0, so ML used to
    # return the all-zero word for a frame of -3.0s with one NaN
    code = LinearCode.from_pcm(HAMMING_74_H)
    for value in (np.nan, np.inf, -np.inf):
        one_bad = np.full((2, 7), -3.0)
        one_bad[1, 4] = value
        for llrs in (np.full((1, 7), value), one_bad):
            with pytest.raises(ValueError, match="llrs"):
                ml_decode_batch(code, llrs)
    assert ml_decode_batch(code, np.full((1, 7), -3.0)).tolist() == [[1] * 7]


def test_ml_decode_batch_rejects_wrong_length():
    code = LinearCode.from_pcm(HAMMING_74_H)
    for llrs in (np.ones((2, 6)), np.ones((0, 8))):
        with pytest.raises(ValueError, match="llrs length"):
            ml_decode_batch(code, llrs)


def test_single_frame_llrs_are_rejected_by_name():
    # one frame without its batch axis used to fail inside numpy
    res = construct_code_with_automorphism(16, 8, 0, seed=0)
    code = res.code
    llrs = np.ones(code.n)
    cfg = BpConfig(iterations=5)
    calls = [
        lambda: bp_min_sum_batch(TannerGraph.from_pcm(code.h), llrs, cfg),
        lambda: PreprocessPlan(res.aut.matrix).apply(llrs),
        lambda: GaedEnsemble(code, power_ensemble(res.aut)).decode_batch(
            llrs, cfg),
        lambda: ml_decode_batch(code, llrs),
        lambda: osd_decode_batch(code, llrs, 1),
    ]
    want = rf"llrs must be a \(frames, n\) array, got shape \({code.n},\)"
    for call in calls:
        with pytest.raises(ValueError, match=want):
            call()


def llr_entry_points():
    """The `built_pair` construction, and each LLR batch entry point as a
    call on one batch: BP, preprocessing, GAED with and without the
    identity path, ML and OSD."""
    code, aut = built_pair()
    graph = TannerGraph.from_pcm(code.h)
    cfg = BpConfig(iterations=5)
    ensembles = [GaedEnsemble(code, power_ensemble(aut, powers))
                 for powers in ((0, 1, -1), (1,))]
    return code, aut, {
        "bp": lambda x: bp_min_sum_batch(graph, x, cfg),
        "preprocess": lambda x: (PreprocessPlan(aut.matrix).apply(x),),
        "gaed": lambda x: ensembles[0].decode_batch(x, cfg),
        "gaed without identity": lambda x: ensembles[1].decode_batch(x, cfg),
        "ml": lambda x: (ml_decode_batch(code, x),),
        "osd": lambda x: osd_decode_batch(code, x, 2),
    }


def test_integer_and_list_llrs_decode_as_float64():
    # integer LLRs once truncated every box-plus output, and lists raised
    # AttributeError in all but OSD
    code, _, calls = llr_entry_points()
    ints = np.random.default_rng(95).integers(-4, 5, size=(40, code.n))
    for call in calls.values():
        want = call(ints.astype(np.float64))
        for llrs in (ints, ints.tolist()):
            got = call(llrs)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)


def test_every_entry_point_rejects_bad_llrs_alike():
    # one gate serves every entry point, so a bad input gets one message
    # everywhere; a NaN let through would decode as the all-zero word
    code, aut, calls = llr_entry_points()
    n = code.n
    # every row of the path matrix that reads column 5 reads another, so
    # box-plus alone would turn an infinity there finite
    t = aut.matrix.to_numpy().astype(bool)
    assert (t.sum(axis=1)[t[:, 5]] > 1).all()
    shape = r"llrs must be a \(frames, n\) array, got shape "
    bad = [
        (np.ones(n), shape + rf"\({n},\)"),
        (np.ones((1, 3, n)), shape + rf"\(1, 3, {n}\)"),
        (np.ones((3, n - 1)), f"llrs length {n - 1} does not match the "
                              f"code length {n}"),
        (np.ones((3, n + 1)), f"llrs length {n + 1} does not match the "
                              f"code length {n}"),
        (np.ones((0, n + 1)), f"llrs length {n + 1} does not match the "
                              f"code length {n}"),
    ]
    for value in (np.nan, np.inf, -np.inf, LLR_CLAMP + 1, -(LLR_CLAMP + 1)):
        want = ("llrs contain NaN or infinity" if not np.isfinite(value)
                else rf"llrs .*exceeds the clamp {LLR_CLAMP}")
        one_bad = np.full((3, n), -3.0)
        one_bad[1, 5] = value
        bad += [(np.full((2, n), value), want), (one_bad, want)]
    for llrs, want in bad:
        messages = set()
        for call in calls.values():
            with pytest.raises(ValueError, match=want) as err:
                call(llrs)
            messages.add(str(err.value))
        assert len(messages) == 1, (llrs.shape, messages)
    # the clamp itself decodes everywhere; all +clamp is the zero codeword
    edge = np.where(np.eye(3, n, dtype=bool), -LLR_CLAMP, LLR_CLAMP)
    for call in calls.values():
        call(edge)
    hard, valid, iters = calls["bp"](np.full((1, n), LLR_CLAMP))
    assert valid[0] and not hard.any() and iters[0] == 1
