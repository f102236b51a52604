"""Binary linear block codes: construction from a parity-check matrix,
distance computation, dual-word search, and parity-check optimization.

Codewords are column vectors x with H @ x = 0; the generator G holds a basis
of that null space in its rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .gf2 import (BitMatrix, independent_rows, ints_to_words, null_space_basis,
                  rank, words_to_bits, words_to_ints, xor_rows)

# combinations of this many rows form one packed enumeration chunk
_CHUNK_BITS = 18
_PCM_TRIALS = 32  # optimize_pcm's tie-break orders; its output depends on it


class ReductionError(ValueError):
    """Coordinate reduction would make the automorphism matrix singular."""


class LinearCode:
    """An (n, k) binary linear code held as a parity-check/generator pair.

    Both matrices must have full row rank, so H has n - k rows and G has k.
    """

    def __init__(self, h: BitMatrix, g: BitMatrix):
        if h.cols != g.cols:
            raise ValueError("H and G widths disagree")
        self.h = h
        self.g = g
        self.n = h.cols
        self.k = g.rows
        if rank(h) != h.rows:
            raise ValueError("parity-check matrix is rank deficient")
        if rank(g) != g.rows:
            raise ValueError("generator matrix is rank deficient")
        if h.rows + g.rows != self.n:
            raise ValueError("H and G dimensions do not add up to n")
        if not (h @ g.transpose()).is_zero():
            raise ValueError("G rows are not in the null space of H")
        self._cache: dict[str, np.ndarray] = {}

    @classmethod
    def from_pcm(cls, h: BitMatrix) -> "LinearCode":
        """Build a code from a full-row-rank parity-check matrix."""
        if h.rows == 0 or h.cols == 0 or h.rows >= h.cols:
            raise ValueError(f"parity-check matrix shape {h.shape} is not usable")
        return cls(h, null_space_basis(h))

    @property
    def rate(self) -> float:
        return self.k / self.n

    def __repr__(self) -> str:
        return f"LinearCode(n={self.n}, k={self.k})"

    def h_numpy(self) -> np.ndarray:
        if "h" not in self._cache:
            arr = self.h.to_numpy()
            arr.flags.writeable = False
            self._cache["h"] = arr
        return self._cache["h"]

    def g_numpy(self) -> np.ndarray:
        if "g" not in self._cache:
            arr = self.g.to_numpy()
            arr.flags.writeable = False
            self._cache["g"] = arr
        return self._cache["g"]

    def encode(self, message) -> np.ndarray:
        """Map (..., k) message bits to the (..., n) uint8 codewords x G."""
        bits = np.asarray(message, dtype=np.uint8)
        if bits.ndim == 0 or bits.shape[-1] != self.k:
            raise ValueError(f"message must have {self.k} bits")
        # uint8 sums wrap modulo 256, an even number, so the parity holds
        return ((bits & 1) @ self.g_numpy()) & 1

    def codeword_table(self) -> np.ndarray:
        """All 2^k codewords as a (2^k, n) uint8 array; small k only."""
        if self.k > 22:
            raise ValueError("codeword table limited to k <= 22")
        if "table" not in self._cache:
            packed = _combination_table([self.g.row_bits(i) for i in range(self.k)],
                                        self.n)
            table = words_to_bits(packed, self.n)
            table.flags.writeable = False
            self._cache["table"] = table
        return self._cache["table"]


def _combination_table(rows: list[int], n: int) -> np.ndarray:
    """All XOR combinations of the given rows, in mask order, packed."""
    packed = ints_to_words(rows, n)
    table = np.zeros((1 << len(rows), packed.shape[1]), dtype=np.uint64)
    for i in range(len(rows)):
        table[1 << i:2 << i] = table[: 1 << i] ^ packed[i]
    return table


def _iter_combination_chunks(rows: list[int], n: int
                             ) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (base_mask, packed chunk) covering all 2^len combinations."""
    low = min(len(rows), _CHUNK_BITS)
    table = _combination_table(rows[:low], n)
    high_rows = rows[low:]
    for hi in range(1 << len(high_rows)):
        base = xor_rows(high_rows, hi)
        if base:
            yield hi << low, table ^ ints_to_words([base], n)[0]
        else:
            yield 0, table


def _weights(packed: np.ndarray) -> np.ndarray:
    return np.bitwise_count(packed).sum(axis=1, dtype=np.int64)


def weight_distribution(rows: list[int], n: int) -> list[int]:
    """Weight counts of the span of the given rows (must be independent)."""
    counts = np.zeros(n + 1, dtype=np.int64)
    for _, chunk in _iter_combination_chunks(rows, n):
        counts += np.bincount(_weights(chunk), minlength=n + 1)
    return counts.tolist()


def min_distance(c: LinearCode, *, max_primal: int = 26, max_dual: int = 24) -> int:
    """Minimum Hamming distance by exhaustive search.

    Enumerates the 2^k codewords when k is small; otherwise enumerates the
    2^(n-k) dual words and converts the dual weight distribution through the
    exact integer MacWilliams transform. Raises when both sides are too big.
    """
    if c.k <= max_primal:
        grows = [c.g.row_bits(i) for i in range(c.k)]
        best = c.n + 1
        for off, chunk in _iter_combination_chunks(grows, c.n):
            w = _weights(chunk)
            if off == 0:
                w[0] = c.n + 1  # the all-zero word
            m = int(w.min())
            if m < best:
                best = m
        return best
    r = c.n - c.k
    if r > max_dual:
        raise ValueError(f"instance too large: k={c.k}, n-k={r}")
    dual = weight_distribution([c.h.row_bits(i) for i in range(r)], c.n)
    dist = _macwilliams(dual, c.n, r)
    return next(j for j in range(1, c.n + 1) if dist[j] > 0)


def _macwilliams(dual_counts: list[int], n: int, dual_dim_log: int) -> list[int]:
    """Weight distribution of the code from its dual's, exact over Z.

    Entry j is sum_w count_w K_j(w) / 2^dual_dim_log. The Krawtchouk values
    K_j(w) of each weight w that occurs come from the integer recurrence
    (j+1) K_{j+1} = (n-2w) K_j - (n-j+1) K_{j-1}, whose divisions are exact.
    """
    counts = [c for c in dual_counts if c]
    slopes = [n - 2 * w for w, c in enumerate(dual_counts) if c]
    prev = [0] * len(counts)  # K_{j-1}(w)
    cur = [1] * len(counts)   # K_j(w)
    out = []
    for j in range(n + 1):
        q, rem = divmod(sum(c * k for c, k in zip(counts, cur)),
                        1 << dual_dim_log)
        if rem or q < 0:
            raise AssertionError("MacWilliams transform left a remainder")
        out.append(q)
        prev, cur = cur, [(a * k - (n - j + 1) * p) // (j + 1)
                          for a, k, p in zip(slopes, cur, prev)]
    return out


@dataclass(frozen=True)
class DualWordPool:
    """Distinct dual codewords, sorted by (weight, value).

    The constructor enforces both, and rejects 0 and any word with a bit at
    or above n; `check_pool` checks the words against a code's dual.

    complete is False when a random search hit its iteration budget before
    reaching the requested number of words; enumeration is always complete.
    """

    words: tuple[int, ...]
    n: int
    complete: bool

    def __post_init__(self) -> None:
        words = sorted(set(self.words), key=lambda w: (w.bit_count(), w))
        bad = [w for w in words if w < 1 or w >> self.n]
        if bad:
            raise ValueError(f"pool words must be nonzero with no bit at or "
                             f"above n={self.n}, got {bad[0]:#x}")
        object.__setattr__(self, "words", tuple(words))


def low_weight_dual_search(c: LinearCode, target_count: int,
                           seed: int = 0) -> DualWordPool:
    """Collect low-weight nonzero dual codewords.

    When n-k <= 24 all 2^(n-k) dual words are enumerated, and the result is
    exactly the first target_count nonzero words in (weight, value) order.
    The enumeration keeps, as packed arrays, only the words at or under a
    running cutoff weight: the smallest weight by which the words seen so
    far already fill the target, since no heavier word can make the pool.
    Only the returned words are converted to ints.

    Above n-k = 24 a seeded random-combination search over H's rows runs
    instead; its pool is marked incomplete when the iteration budget ends
    before target_count words are found.
    """
    if target_count < 1:
        raise ValueError("target_count must be positive")
    r = c.n - c.k
    hrows = [c.h.row_bits(i) for i in range(r)]
    if r <= 24:
        cutoff = c.n
        hist = np.zeros(c.n + 1, dtype=np.int64)
        packed: list[np.ndarray] = []
        weights: list[np.ndarray] = []
        for _, chunk in _iter_combination_chunks(hrows, c.n):
            w = _weights(chunk)
            keep = (w > 0) & (w <= cutoff)
            packed.append(chunk[keep])
            weights.append(w[keep])
            hist += np.bincount(weights[-1], minlength=c.n + 1)
            reached = int(np.searchsorted(np.cumsum(hist), target_count))
            if reached < cutoff:
                cutoff = reached
                # rebinding w and keep frees this chunk's arrays before the
                # copy below, which lowers the peak memory
                p, w = np.concatenate(packed), np.concatenate(weights)
                keep = w <= cutoff
                packed, weights = [p[keep]], [w[keep]]
        p, w = np.concatenate(packed), np.concatenate(weights)
        # the last packed column is the most significant (see gaedkit.gf2)
        order = np.lexsort((*p.T, w))[:target_count]
        return DualWordPool(tuple(words_to_ints(p[order])), c.n, True)

    rng = np.random.default_rng(seed)
    collected = set(hrows)
    budget = max(10_000, 400 * target_count)
    spent = 0
    mask_words = (r + 62) // 63
    mask_limit = (1 << r) - 1
    while len(collected) < target_count and spent < budget:
        batch = min(4096, budget - spent)
        spent += batch
        draws = rng.integers(0, 2**63, size=(batch, mask_words), dtype=np.int64)
        for chunk_row in draws.tolist():
            mm = 0
            for part in chunk_row:
                mm = (mm << 63) | part
            word = xor_rows(hrows, mm & mask_limit)
            if word:
                collected.add(word)
    words = sorted(collected, key=lambda v: (v.bit_count(), v))[:target_count]
    return DualWordPool(tuple(words), c.n, len(words) >= target_count)


def check_pool(c: LinearCode, pool: DualWordPool) -> None:
    """Confirm every pool word is a dual codeword of c."""
    if pool.n != c.n:
        raise ValueError("pool length does not match the code")
    for w in pool.words:
        if c.g.mat_vec(w) != 0:
            raise ValueError("pool contains a word outside the dual code")


def four_cycle_count(m: BitMatrix) -> int:
    """Number of length-4 cycles in the bipartite adjacency graph of m."""
    total = 0
    bits = list(m)
    for i in range(len(bits)):
        for j in range(i + 1, len(bits)):
            shared = (bits[i] & bits[j]).bit_count()
            total += shared * (shared - 1) // 2
    return total


def optimize_pcm(c: LinearCode, pool: DualWordPool,
                 seed: int = 0) -> LinearCode:
    """Pick a better PCM for the same code from a pool of dual words.

    Greedy independent selection in weight order gives the minimum possible
    total weight; random tie-break order within equal weights is retried
    _PCM_TRIALS times and the (total weight, four-cycle count) lexicographic
    best is kept. The returned code has the identical null space.
    """
    r = c.n - c.k
    words = list(pool.words)
    check_pool(c, pool)
    if rank(BitMatrix(words, c.n)) != r:
        raise ValueError("pool does not span the dual code")
    weights = [w.bit_count() for w in words]
    rng = np.random.default_rng(seed)
    best: tuple[int, int] | None = None
    best_rows: list[int] = []
    for trial in range(_PCM_TRIALS):
        if trial == 0:
            order = sorted(range(len(words)), key=lambda i: (weights[i], words[i]))
        else:
            jitter = rng.permutation(len(words))
            order = sorted(range(len(words)), key=lambda i: (weights[i], jitter[i]))
        picks = islice(independent_rows(words[i] for i in order), r)
        rows = sorted((words[order[j]] for j in picks),
                      key=lambda v: (v.bit_count(), v))
        score = (sum(v.bit_count() for v in rows),
                 four_cycle_count(BitMatrix(rows, c.n)))
        if best is None or score < best:
            best, best_rows = score, rows
    new_h = BitMatrix(best_rows, c.n)
    if rank(new_h.vstack(c.h)) != r:
        raise AssertionError("optimized PCM changed the code")
    return LinearCode.from_pcm(new_h)


def reduce_zero_columns(c: LinearCode, t: BitMatrix
                        ) -> tuple[LinearCode, BitMatrix, tuple[int, ...]]:
    """Drop coordinates that are zero in every codeword.

    Such positions arise when G has all-zero columns; every codeword is zero
    there, so the code, its PCM, and the automorphism matrix t can all be
    restricted to the remaining positions. Returns (code, t, dropped
    positions); raises ReductionError when the restriction of t stops being
    invertible (t mixes frozen and active positions).
    """
    if t.shape != (c.n, c.n):
        raise ValueError("automorphism shape does not match the code")
    col_union = 0
    for i in range(c.k):
        col_union |= c.g.row_bits(i)
    frozen = tuple(j for j in range(c.n) if not (col_union >> j) & 1)
    if not frozen:
        return c, t, frozen
    active = [j for j in range(c.n) if (col_union >> j) & 1]
    t_sub = t.take_rows(active).take_cols(active)
    if rank(t_sub) != len(active):
        raise ReductionError(
            f"dropping {len(frozen)} frozen positions breaks invertibility")
    h_cut = c.h.take_cols(active)
    kept = h_cut.take_rows(list(independent_rows(h_cut)))
    if not kept.rows:
        raise ReductionError("reduction left a code without redundancy")
    reduced = LinearCode.from_pcm(kept)
    if reduced.k != c.k:
        raise AssertionError("reduction changed the code dimension")
    return reduced, t_sub, frozen
