"""End-to-end acceptance checks for the package's headline guarantees.

Every test pins its seeds and stopping rules, so reruns are exactly
reproducible, and each states its tolerance inline. The Monte Carlo
comparisons stop on frame-error budgets, not wall-clock time.
"""

import math
from functools import reduce
from itertools import product
from operator import mul

import mpmath
import numpy as np

from gaedkit import (LLR_CLAMP, BitMatrix, BpConfig, DecoderSpec,
                     GaedEnsemble, GeneralizedAutomorphism, LinearCode,
                     SweepConfig,
                     awgn_llr_batch, box_plus, compute_ccm, conjugate_z,
                     construct_code_with_automorphism, frobenius_normal_form,
                     invert, membership_in_z, osd_decode_batch,
                     random_z_block, rank, run_sweep, verify_automorphism)
from gaedkit.decoders import (PreprocessPlan, TannerGraph, bp_min_sum_batch,
                              ml_decode_batch)
from gaedkit.frobenius import char_poly

SEED_32 = 6   # (32, 16) design with a weight-42 automorphism
SEED_39 = 17  # (39, 24) design whose automorphism is a plain permutation


def random_full_rank(rng, rows, cols):
    while True:
        m = BitMatrix.random(rows, cols, rng)
        if rank(m) == rows:
            return m


def invertible_count(n):
    out = 1
    for i in range(n):
        out *= (1 << n) - (1 << i)
    return out


def crossing_db(records, target):
    """Eb/N0 where the measured FER curve crosses `target`, by log-linear
    interpolation over the first adjacent pair that brackets it."""
    pts = [(r.ebno_db, r.fer) for r in records if r.fer > 0.0]
    for (x0, f0), (x1, f1) in zip(pts, pts[1:]):
        if f0 >= target >= f1:
            if f0 == f1:
                return x0
            frac = (math.log10(f0) - math.log10(target)) \
                / (math.log10(f0) - math.log10(f1))
            return x0 + frac * (x1 - x0)
    raise AssertionError(f"no adjacent pair of points brackets FER {target:g}")


def test_conjugate_block_membership_equals_direct_check():
    rng = np.random.default_rng(101)
    code = LinearCode.from_pcm(random_full_rank(rng, 6, 12))
    ccm = compute_ccm(code)
    for _ in range(10_000):
        t = BitMatrix.random_invertible(12, rng)
        assert membership_in_z(ccm, t) == verify_automorphism(code, t)
    for _ in range(300):
        t = conjugate_z(ccm, random_z_block(12, 6, rng)).matrix
        assert membership_in_z(ccm, t)
        assert verify_automorphism(code, t)
    # Small lengths, every invertible matrix: the two tests agree and the
    # number of members is exactly |GL(n-k)| * |GL(k)| * 2^(k(n-k)).
    cases = [(2, [0b11]), (3, [0b011, 0b110]), (4, [0b1101, 0b1010])]
    for n, h_rows in cases:
        small = LinearCode.from_pcm(BitMatrix(h_rows, n))
        sccm = compute_ccm(small)
        k, r = small.k, small.n - small.k
        expected = (invertible_count(r) * invertible_count(k)) << (k * r)
        hits = 0
        for rows in product(range(1 << n), repeat=n):
            t = BitMatrix(rows, n)
            if rank(t) != n:
                continue
            member = membership_in_z(sccm, t)
            assert member == verify_automorphism(small, t)
            hits += member
        assert hits == expected


def test_normalizing_basis_shape_and_inverse_rows():
    rng = np.random.default_rng(202)
    for _ in range(1000):
        n = int(rng.integers(2, 33))
        r = int(rng.integers(1, n))
        code = LinearCode.from_pcm(random_full_rank(rng, r, n))
        ccm = compute_ccm(code)
        assert list(code.h @ ccm.basis) == [1 << i for i in range(r)]
        assert list(ccm.basis_inv)[:r] == list(code.h)
        assert ccm.basis @ ccm.basis_inv == BitMatrix.identity(n)


def test_constructed_automorphism_family_verifies():
    total_attempts = total_failures = 0
    for seed in range(100):
        res = construct_code_with_automorphism(32, 16, 10, seed=seed)
        code = res.code
        assert verify_automorphism(code, res.aut.matrix)
        assert verify_automorphism(code, res.aut.inverse)
        assert verify_automorphism(code, res.t_squared)
        assert res.pre_reduction_omega == 32 + 10
        failures = res.ordering_failures + res.reduction_failures
        assert res.attempts == failures + 1
        total_attempts += res.attempts
        total_failures += failures
    assert total_attempts == 100 + total_failures
    print(f"resample statistics: {total_attempts} attempts over 100 runs, "
          f"{total_failures} resampled")


def test_box_plus_value_and_permutation_passthrough():
    got = box_plus((1.0, 1.0))
    assert abs(got - 0.4337808304830271) < 1e-15
    mpmath.mp.dps = 50
    ref = float(2 * mpmath.atanh(mpmath.tanh(mpmath.mpf(1) / 2) ** 2))
    assert abs(got - ref) < 1e-9
    # Permutation rows have degree one, so preprocessing must copy the
    # permuted inputs bitwise, with no box-plus arithmetic involved.
    rng = np.random.default_rng(404)
    perm = rng.permutation(24)
    t = GeneralizedAutomorphism.from_matrix(
        BitMatrix((1 << int(p) for p in perm), 24))
    llrs = rng.uniform(-20.0, 20.0, size=(1, 24))
    out = PreprocessPlan(t.matrix).apply(llrs)
    assert np.array_equal(out, llrs[:, perm])
    # the edge values, compared as bytes: -0.0 must stay -0.0
    edges = np.resize([-0.0, 0.0, LLR_CLAMP, -LLR_CLAMP, 1.0], (3, 24))
    edges[1] = rng.permutation(edges[1])
    out = PreprocessPlan(t.matrix).apply(edges)
    assert out.tobytes() == edges[:, perm].tobytes()


def test_identity_ensemble_matches_plain_bp():
    res = construct_code_with_automorphism(16, 8, 4, seed=0)
    code = res.code
    graph = TannerGraph.from_pcm(code.h)
    ens = GaedEnsemble(code, [GeneralizedAutomorphism.identity(code.n)])
    cfg = BpConfig(iterations=10)
    rng = np.random.default_rng(505)
    rate = code.k / code.n
    for _ in range(1000):
        cw = code.encode(rng.integers(0, 2, size=code.k))
        llr = awgn_llr_batch(cw[None, :], 3.0, rate, rng)
        hard, valid, iters = bp_min_sum_batch(graph, llr, cfg)
        b_hard, b_valid, b_iters, path, corr = ens.decode_batch(llr, cfg)
        assert np.array_equal(hard, b_hard)
        assert valid[0] == b_valid[0]
        assert iters[0] == b_iters[0]
        assert corr[0] == ((1.0 - 2.0 * hard[0]) * llr[0]).sum()
        assert path[0] == 0


def test_ensemble_gain_over_plain_bp():
    bp = DecoderSpec(kind="bp", iterations=30)
    gaed = DecoderSpec(kind="gaed", iterations=10, powers=(0, 1, -1))
    assert (bp.label, gaed.label) == ("BP-30", "GAED-3-BP-10")

    # A three-path ensemble with a 10-iteration budget per path must beat
    # a 30-iteration plain decode where the latter sits nearest FER 1e-2,
    # with non-overlapping 95% confidence intervals.
    res = construct_code_with_automorphism(32, 16, 10, seed=SEED_32)
    scan = SweepConfig(ebn0_db=(3.5, 4.0, 4.5, 5.0), min_frame_errors=500,
                       max_frames=400_000, seed=1)
    bp_recs = run_sweep(res.code, bp, scan)
    pick = min(bp_recs, key=lambda rec: abs(math.log10(rec.fer) + 2.0))
    point = SweepConfig(ebn0_db=(pick.ebno_db,), min_frame_errors=500,
                        max_frames=400_000, seed=1)
    gaed_rec = run_sweep(res.code, gaed, point, aut=res.aut)[0]
    assert min(pick.frame_errors, gaed_rec.frame_errors) >= 300
    assert gaed_rec.fer + gaed_rec.ci95 < pick.fer - pick.ci95

    # The same ordering, read as a horizontal gain: a permutation design
    # must reach FER 1e-3 at a strictly lower Eb/N0 than plain BP.
    res39 = construct_code_with_automorphism(39, 24, 0, seed=SEED_39)
    assert res39.aut.delta == 0
    bp39 = run_sweep(res39.code, bp, SweepConfig(
        ebn0_db=(6.0, 6.5, 7.0, 7.5), min_frame_errors=300,
        max_frames=1_200_000, seed=3))
    gaed39 = run_sweep(res39.code, gaed, SweepConfig(
        ebn0_db=(6.0, 6.5, 7.0), min_frame_errors=300,
        max_frames=1_200_000, seed=3), aut=res39.aut)
    gain_db = crossing_db(bp39, 1e-3) - crossing_db(gaed39, 1e-3)
    print(f"gain at FER 1e-3: {gain_db:.3f} dB")
    assert gain_db > 0.0


def test_osd_agrees_with_exhaustive_ml():
    rows = [sum((((c + 1) >> r) & 1) << c for c in range(15))
            for r in range(4)]
    code = LinearCode.from_pcm(BitMatrix(rows, 15))
    assert (code.n, code.k) == (15, 11)
    rng = np.random.default_rng(707)
    msgs = rng.integers(0, 2, size=(10_000, code.k))
    cws = (msgs @ code.g_numpy()) % 2
    llrs = awgn_llr_batch(cws, 3.5, code.k / code.n, rng)
    ml_hard = ml_decode_batch(code, llrs)
    osd_hard, _ = osd_decode_batch(code, llrs, 3)
    agreement = np.all(osd_hard == ml_hard, axis=1).mean()
    assert agreement >= 0.999
    ml_errors = int((ml_hard != cws).any(axis=1).sum())
    osd_errors = int((osd_hard != cws).any(axis=1).sum())
    assert ml_errors > 0
    assert osd_errors >= ml_errors


def test_allzero_and_random_codeword_fer_agree():
    res = construct_code_with_automorphism(32, 16, 10, seed=SEED_32)
    bp = DecoderSpec(kind="bp", iterations=30)
    zero = run_sweep(res.code, bp, SweepConfig(
        ebn0_db=(4.0,), min_frame_errors=1000, max_frames=300_000,
        seed=21))[0]
    coded = run_sweep(res.code, bp, SweepConfig(
        ebn0_db=(4.0,), min_frame_errors=1000, max_frames=300_000,
        seed=22, random_codewords=True))[0]
    assert min(zero.frame_errors, coded.frame_errors) >= 300
    assert abs(zero.fer - coded.fer) <= zero.ci95 + coded.ci95


def test_frobenius_reconstruction_and_charpoly():
    rng = np.random.default_rng(909)
    for _ in range(1000):
        n = int(rng.integers(1, 17))
        t = BitMatrix.random_invertible(n, rng)
        fb = frobenius_normal_form(t)
        assert invert(fb.transform) @ fb.form @ fb.transform == t
        assert reduce(mul, fb.blocks) == char_poly(t)
