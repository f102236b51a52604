"""AWGN channel model and LLR container."""

import math

import numpy as np
import pytest

from gaedkit.channel import (LLR_CLAMP, LlrVector, awgn_llr, awgn_llr_batch,
                             noise_sigma)


def q_function(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def test_llr_vector_validation():
    v = LlrVector(np.array([1.0, -2.5, 0.0]))
    assert len(v) == 3
    assert not v.values.flags.writeable
    with pytest.raises(ValueError, match="one-dimensional"):
        LlrVector(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="NaN or infinity"):
        LlrVector(np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="NaN or infinity"):
        LlrVector(np.array([np.inf]))
    with pytest.raises(ValueError, match="exceeds the clamp"):
        LlrVector(np.array([26.0]))
    assert LlrVector(np.array([-LLR_CLAMP, LLR_CLAMP])).values.tolist() == \
        [-LLR_CLAMP, LLR_CLAMP]


def test_noise_sigma_formula():
    # rate 1/2 at 0 dB: sigma^2 = 1/(2 * 0.5 * 1) = 1
    assert noise_sigma(0.0, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert noise_sigma(3.0, 0.5) == pytest.approx(10.0 ** -0.15, abs=1e-15)
    got = noise_sigma(2.0, 0.75)
    assert got == pytest.approx(math.sqrt(1.0 / (1.5 * 10.0 ** 0.2)), abs=1e-15)
    with pytest.raises(ValueError):
        noise_sigma(1.0, 0.0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            noise_sigma(bad, 0.5)


def test_bit_to_symbol_polarity():
    # near-noiseless: LLR sign must follow the transmitted bit (0 -> +, 1 -> -)
    bits = np.array([[0, 1, 0, 1, 1, 0]], dtype=np.uint8)
    llrs = awgn_llr_batch(bits, 60.0, 0.5, np.random.default_rng(1))
    assert np.all(np.sign(llrs[0]) == np.where(bits[0] == 0, 1.0, -1.0))
    assert np.all(np.abs(llrs[0]) == LLR_CLAMP)  # high SNR saturates the clip


def test_non_binary_codeword_bits_are_rejected():
    rng = np.random.default_rng(3)
    for bad in (2, 3, -1, 0.5, np.nan):
        words = np.zeros((2, 4))
        words[1, 2] = bad
        with pytest.raises(ValueError, match="codewords"):
            awgn_llr_batch(words, 3.0, 0.5, rng)
        with pytest.raises(ValueError, match="codewords"):
            awgn_llr(words[1], 3.0, 0.5, seed=1)
    ok = np.array([[0, 1, True, False]])
    assert awgn_llr_batch(ok, 3.0, 0.5, rng).shape == (1, 4)


def test_clamp_bounds_all_outputs():
    rng = np.random.default_rng(2)
    llrs = awgn_llr_batch(np.zeros((64, 100), dtype=np.uint8), 15.0, 0.5, rng)
    assert np.all(np.abs(llrs) <= LLR_CLAMP)
    single = awgn_llr(np.zeros(50, dtype=np.uint8), 15.0, 0.5, seed=2)
    assert np.all(np.abs(single.values) <= LLR_CLAMP)


def test_determinism_and_generator_passing():
    bits = np.zeros(32, dtype=np.uint8)
    a = awgn_llr(bits, 2.0, 0.5, seed=7)
    b = awgn_llr(bits, 2.0, 0.5, seed=7)
    assert np.array_equal(a.values, b.values)
    c = awgn_llr(bits, 2.0, 0.5, seed=np.random.default_rng(7))
    assert np.array_equal(a.values, c.values)
    d = awgn_llr(bits, 2.0, 0.5, seed=8)
    assert not np.array_equal(a.values, d.values)


def test_single_frame_matches_batch_row():
    bits = np.zeros((1, 40), dtype=np.uint8)
    batch = awgn_llr_batch(bits, 3.0, 0.5, np.random.default_rng(11))
    single = awgn_llr(np.zeros(40, dtype=np.uint8), 3.0, 0.5, seed=11)
    assert np.array_equal(batch[0], single.values)


def test_llr_scaling_is_invertible_to_samples():
    # below the clip, llr * sigma^2 / 2 recovers the channel output exactly,
    # and its mean over many frames approaches the +1 symbol; at 4 dB and
    # rate 1/2 an LLR of LLR_CLAMP lies about 6 sigma above the mean, so the
    # clip leaves these statistics alone
    rng = np.random.default_rng(12)
    sigma = noise_sigma(4.0, 0.5)
    llrs = awgn_llr_batch(np.zeros((2000, 16), dtype=np.uint8), 4.0, 0.5, rng)
    samples = llrs * sigma * sigma / 2.0
    assert abs(float(samples.mean()) - 1.0) < 0.02
    assert abs(float(samples.std()) - sigma) < 0.02


def test_hard_decision_error_rate_matches_q_function():
    # uncoded BPSK: bit error probability is Q(sqrt(2 Eb/N0))
    ebn0_db = 2.0
    n = 400_000
    rng = np.random.default_rng(13)
    llrs = awgn_llr_batch(np.zeros((1, n), dtype=np.uint8), ebn0_db, 1.0, rng)
    empirical = float(np.mean(llrs[0] < 0))
    expected = q_function(math.sqrt(2.0 * 10.0 ** (ebn0_db / 10.0)))
    tol = 3.0 * math.sqrt(expected * (1.0 - expected) / n)
    assert abs(empirical - expected) < tol
