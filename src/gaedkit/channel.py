"""BPSK transmission over AWGN, reported as log-likelihood ratios."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Saturation magnitude for channel LLRs and decoder messages. Far above any
# decision-relevant value, low enough to keep tanh/atanh away from overflow.
LLR_CLAMP = 25.0


@dataclass(frozen=True)
class LlrVector:
    """Immutable one-frame vector of LLRs that pass `check_llr_batch`."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError("LLR vector must be one-dimensional")
        check_llr_batch(v[None, :], v.shape[0])
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]


def check_llr_batch(llrs, n: int) -> np.ndarray:
    """The LLRs as a float64 (frames, n) array, or a ValueError naming llrs.

    The one input rule of every decoder: two dimensions, n values a frame,
    each finite and at most LLR_CLAMP in magnitude. Decoders work on what
    this returns, so integer or list input decodes exactly as its float64
    copy does."""
    arr = np.asarray(llrs, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"llrs must be a (frames, n) array, got shape "
                         f"{arr.shape}")
    if arr.shape[1] != n:
        raise ValueError(f"llrs length {arr.shape[1]} does not match the "
                         f"code length {n}")
    # two reductions and no (frames, n) temporary. NaN fails every
    # comparison, so it falls out here with the infinities; `initial` lets
    # a batch of no frames through.
    lo, hi = arr.min(initial=0.0), arr.max(initial=0.0)
    if not -LLR_CLAMP <= lo <= hi <= LLR_CLAMP:
        if not np.isfinite(arr).all():
            raise ValueError("llrs contain NaN or infinity")
        raise ValueError(f"llrs hold a magnitude that exceeds the clamp "
                         f"{LLR_CLAMP}")
    return arr


def noise_sigma(ebn0_db: float, rate: float) -> float:
    """Per-dimension noise standard deviation for BPSK at a given Eb/N0."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    if not np.isfinite(ebn0_db):
        raise ValueError(f"Eb/N0 must be finite, got {ebn0_db}")
    return float(np.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0))))


def awgn_llr_batch(codewords: np.ndarray, ebn0_db: float, rate: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Channel LLRs for a (frames, n) array of codeword bits.

    Bit 0 maps to +1 and bit 1 to -1; the LLR of each received sample y is
    2y/sigma^2, clipped to +-LLR_CLAMP. Any other entry raises ValueError.
    """
    bits = np.asarray(codewords, dtype=np.float64)
    if ((bits != 0.0) & (bits != 1.0)).any():
        raise ValueError("codewords must hold only 0 and 1 bits")
    symbols = 1.0 - 2.0 * bits
    sigma = noise_sigma(ebn0_db, rate)
    y = symbols + sigma * rng.standard_normal(bits.shape)
    return np.clip(2.0 * y / (sigma * sigma), -LLR_CLAMP, LLR_CLAMP)
