"""Binary linear block codes: construction from a parity-check matrix,
distance computation, dual-word search, and parity-check optimization.

A code is its parity-check matrix H: codewords are the column vectors x
with H @ x = 0. The generator G holds the one basis of that null space
whose rows lead with distinct free columns and are zero at the others, so
every H of a code gives the same G.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterator

import numpy as np

from .gf2 import (BitMatrix, Reducer, _check_count, independent_rows,
                  ints_to_words, null_space_basis, rank, words_to_bits,
                  words_to_ints, xor_rows)

# combinations of this many rows form one packed enumeration chunk
_CHUNK_BITS = 18
_PCM_TRIALS = 32  # optimize_pcm's tie-break orders; its output depends on it
_MAX_PRIMAL = 26  # min_distance enumerates 2^k codewords up to this k
_MAX_DUAL = 24    # and otherwise 2^(n-k) dual words up to this n - k


class ReductionError(ValueError):
    """Coordinate reduction would make the automorphism matrix singular."""


class LinearCode:
    """An (n, k) binary linear code given by its parity-check matrix H,
    which must have full row rank. G is `null_space_basis(h)`, from the
    same elimination that proves that rank, and depends on the code alone.
    """

    def __init__(self, h: BitMatrix):
        if h.rows == 0 or h.cols == 0 or h.rows >= h.cols:
            raise ValueError(f"parity-check matrix shape {h.shape} is not usable")
        self.h = h
        self.g = null_space_basis(h)
        self.n = h.cols
        self.k = self.g.rows
        if h.rows + self.k != self.n:
            raise ValueError("parity-check matrix is rank deficient")
        self._cache: dict[str, np.ndarray | int] = {}

    @classmethod
    def from_pcm(cls, h: BitMatrix) -> "LinearCode":
        """The same as `LinearCode(h)`."""
        return cls(h)

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
        """Map (..., k) message bits to the (..., n) uint8 codewords x G.
        An entry other than 0 or 1 raises ValueError."""
        bits = np.asarray(message)
        if bits.ndim == 0 or bits.shape[-1] != self.k:
            raise ValueError(f"message must have {self.k} bits")
        if ((bits != 0) & (bits != 1)).any():
            raise ValueError("message must hold only 0 and 1 bits")
        # uint8 sums wrap modulo 256, an even number, so the parity holds
        return (bits.astype(np.uint8) @ self.g_numpy()) & 1

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

    def distance_bound(self) -> int:
        """`min_distance`, or 1 where the code is too large to enumerate:
        a lower bound on the distance, which keeps `certified_ml` exact.
        Enumerated at most once per code, then kept with it."""
        if "d" not in self._cache:
            try:
                self._cache["d"] = min_distance(self)
            except ValueError:      # too large to enumerate
                self._cache["d"] = 1
        return self._cache["d"]


def _combination_table(rows: list[int], n: int) -> np.ndarray:
    """All XOR combinations of the given rows, in mask order, packed."""
    packed = ints_to_words(rows, n)
    table = np.zeros((1 << len(rows), packed.shape[1]), dtype=np.uint64)
    for i in range(len(rows)):
        np.bitwise_xor(table[: 1 << i], packed[i], out=table[1 << i:2 << i])
    return table


def _iter_span(rows: list[int], n: int
               ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (packed words, int64 weights) chunks covering all 2^len(rows)
    XOR combinations of the rows, one chunk per combination of the rows
    above the first _CHUNK_BITS.

    Both arrays are buffers allocated once and refilled for the next chunk,
    so they are valid only until the iterator resumes: a caller that keeps
    words must copy them out.
    """
    low = min(len(rows), _CHUNK_BITS)
    table = _combination_table(rows[:low], n)
    bases = _combination_table(rows[low:], n)
    chunk = np.empty_like(table) if len(bases) > 1 else table
    weights = np.empty(len(table), dtype=np.int64)
    counts = np.empty(len(table), dtype=np.uint8)
    for base in bases:
        if chunk is not table:
            np.bitwise_xor(table, base, out=chunk)
        # a popcount per word column: a sum along the short word axis of a
        # (rows, words) count array is several times slower
        np.bitwise_count(chunk[:, 0], out=weights)
        for j in range(1, chunk.shape[1]):
            np.add(weights, np.bitwise_count(chunk[:, j], out=counts),
                   out=weights)
        yield chunk, weights


def weight_distribution(rows: list[int], n: int) -> list[int]:
    """Weight counts of the span of the given rows (must be independent)."""
    if len(list(independent_rows(rows))) < len(rows):
        raise ValueError("weight_distribution needs independent rows")
    counts = np.zeros(n + 1, dtype=np.int64)
    for _, weights in _iter_span(rows, n):
        counts += np.bincount(weights, minlength=n + 1)
    return counts.tolist()


def min_distance(c: LinearCode) -> int:
    """Minimum Hamming distance by exhaustive search.

    Enumerates the 2^k codewords when k is small; otherwise enumerates the
    2^(n-k) dual words and converts the dual weight distribution through the
    exact integer MacWilliams transform. Raises when both sides are too big.
    """
    r = c.n - c.k
    if c.k <= _MAX_PRIMAL:
        dist = weight_distribution([c.g.row_bits(i) for i in range(c.k)], c.n)
    elif r <= _MAX_DUAL:
        dual = weight_distribution([c.h.row_bits(i) for i in range(r)], c.n)
        dist = _macwilliams(dual, c.n, r)
    else:
        raise ValueError(f"instance too large: k={c.k}, n-k={r}")
    return next(j for j in range(1, c.n + 1) if dist[j] > 0)


def _correlation(hard: np.ndarray, llrs: np.ndarray) -> np.ndarray:
    """Each row's sum_j (1 - 2 hard_j) llrs_j: every decoder's score."""
    # (1 - 2h) * x is exactly x or -x, so negating a copy in place is bit
    # for bit the same sum without two (frames, n) float temporaries
    signed = llrs.copy()
    np.negative(signed, where=hard.astype(bool), out=signed)
    return signed.sum(axis=-1)


def certified_ml(llrs: np.ndarray, words: np.ndarray, d: int) -> np.ndarray:
    """Frames whose codeword in `words` is the unique maximum-likelihood
    decision for its row of the (frames, n) LLRs, by the sufficient test of
    Taipale and Pursley (IEEE Trans. IT, 1991); d is any lower bound on the
    code's distance. A row that is not a codeword may pass: the caller
    rules those out.

    With E the positions where the word differs from the channel's hard
    decision, any other codeword differs from it in at least d places,
    d - |E| of them outside E. So it correlates less when the smallest
    d - |E| values of |LLR| outside E sum to more than those over E.
    A margin of 1e-9 * sum |LLR| keeps rounding from certifying a tie:
    every other codeword then correlates lower by over 2e-9 * sum |LLR|,
    far beyond the rounding of any float64 correlation of n terms.
    """
    flips = words != (llrs < 0)
    out = flips.sum(axis=1) < d
    f = np.flatnonzero(out)   # only these can pass: sort no others
    mags, flips = np.abs(llrs[f]), flips[f]
    # E's entries read 0, so the d smallest are E's |E| zeros and the
    # d - |E| smallest outside E
    low = np.partition(np.where(flips, 0.0, mags), d - 1,
                       axis=1)[:, :d].sum(axis=1)
    on_e = np.where(flips, mags, 0.0).sum(axis=1)
    out[f] = low - on_e > 1e-9 * mags.sum(axis=1)
    return out


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
    """

    words: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        _check_count("n", self.n, 0)
        for w in self.words:
            _check_count("pool word", w)
        words = sorted(set(self.words), key=lambda w: (w.bit_count(), w))
        bad = [w for w in words if w < 1 or w >> self.n]
        if bad:
            raise ValueError(f"pool words must be nonzero with no bit at or "
                             f"above n={self.n}, got {bad[0]:#x}")
        object.__setattr__(self, "words", tuple(words))


def low_weight_dual_search(c: LinearCode, target_count: int,
                           seed: int = 0) -> DualWordPool:
    """Collect low-weight nonzero dual codewords.

    When n-k <= _MAX_DUAL, all 2^(n-k) dual words are enumerated and the
    result is the first target_count nonzero words in (weight, value) order.
    For each chunk of the enumeration the weight histogram and the cutoff
    are updated first: the cutoff is the smallest weight by which the words
    seen so far already fill the target, since no heavier word can make the
    pool. Only then is the chunk filtered, so only its words at or under the
    cutoff are copied out, as packed arrays; only the returned words are
    converted to ints.

    Above that a seeded random-combination search over H's rows runs
    instead; its pool holds fewer than target_count words when the
    iteration budget ends first.
    """
    _check_count("target_count", target_count, 1)
    _check_count("seed", seed, 0)
    r = c.n - c.k
    hrows = [c.h.row_bits(i) for i in range(r)]
    if r <= _MAX_DUAL:
        cutoff = c.n
        hist = np.zeros(c.n + 1, dtype=np.int64)
        packed: list[np.ndarray] = []
        weights: list[np.ndarray] = []
        for chunk, w in _iter_span(hrows, c.n):
            hist += np.bincount(w, minlength=c.n + 1)
            # hist[0] counts the zero word, which is no pool word
            cutoff = min(cutoff, 1 + int(np.searchsorted(
                np.cumsum(hist[1:]), target_count)))
            # row indices: a boolean mask over 2-D rows is several times slower
            keep = np.flatnonzero(w <= cutoff)
            packed.append(chunk[keep])
            weights.append(w[keep])
        p, w = np.concatenate(packed), np.concatenate(weights)
        # the last packed column is the most significant (see gaedkit.gf2);
        # the zero word sorts first and is skipped
        order = np.lexsort((*p.T, w))[1:target_count + 1]
        return DualWordPool(tuple(words_to_ints(p[order])), c.n)

    rng = np.random.default_rng(seed)
    collected = set(hrows)
    budget = max(10_000, 400 * target_count)
    spent = 0
    while len(collected) < target_count and spent < budget:
        batch = min(4096, budget - spent)
        spent += batch
        for mask in BitMatrix.random(batch, r, rng):
            word = xor_rows(hrows, mask)
            if word:
                collected.add(word)
    words = sorted(collected, key=lambda v: (v.bit_count(), v))[:target_count]
    return DualWordPool(tuple(words), c.n)


def check_pool(c: LinearCode, pool: DualWordPool) -> None:
    """Confirm every pool word is a dual codeword of c."""
    if pool.n != c.n:
        raise ValueError("pool length does not match the code")
    words, g = ints_to_words(pool.words, c.n), ints_to_words(list(c.g), c.n)
    if (_overlaps(words, g) & 1).any():  # odd overlap: G_i . w = 1
        raise ValueError("pool contains a word outside the dual code")


def four_cycle_count(m: BitMatrix) -> int:
    """Number of length-4 cycles in the bipartite adjacency graph of m."""
    return _four_cycles(ints_to_words(list(m), m.cols))


def _four_cycles(rows: np.ndarray) -> int:
    """C(s, 2) summed over the pairs of packed rows that share s columns.
    The overlap matrix is symmetric, so its off-diagonal s(s - 1) entries
    sum to four times that count."""
    pairs = _overlaps(rows, rows)
    pairs *= pairs - 1
    return int(pairs.sum() - pairs.trace()) // 4


def _overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entry (i, j) counts the columns that packed rows a_i and b_j share."""
    shared = np.zeros((len(a), len(b)), dtype=np.int64)
    for j in range(a.shape[1]):
        shared += np.bitwise_count(a[:, j, None] & b[:, j])
    return shared


def _residue(pivots: list[tuple[int, tuple[int, int]]], v: int) -> int:
    """v with each pivot bit cleared by the row stored there, given a
    Reducer's (pivot, (row, witness)) items in descending pivot order: the
    one vector of v + span that is zero at every pivot, so the map is
    linear, with the span as its kernel."""
    for p, (row, _) in pivots:
        if v >> p & 1:
            v ^= row
    return v


def optimize_pcm(c: LinearCode, pool: DualWordPool,
                 seed: int = 0) -> LinearCode:
    """Pick a better PCM for the same code from a pool of dual words.

    Greedy independent selection in weight order gives the minimum possible
    total weight. The dual's bases form a matroid, so every tie-break order
    within equal weights reaches that same total, and the score is the
    four-cycle count alone: _PCM_TRIALS tie-break orders are tried, the
    pool's own (weight, value) order first and then random ones, and the
    first with the fewest four-cycles is kept.

    The orders share one elimination. Once a greedy pass is through the
    lighter weight classes, its picks span exactly their span S, whatever
    the order, so in the next class it picks a word iff the word's residue
    modulo S is outside the span of the residues it picked before. Each
    class's residues are computed once, lightest class first, until the
    ranks reach n - k: the pivot bits of an echelon basis of S are cleared
    in descending order, which leaves the one vector of v + S that is zero
    at every pivot, a linear map with kernel S. A trial then only finds a
    basis of each class's residues in its own order, and stops at the rank
    the class adds: its picks are exactly those of a greedy pass over the
    whole pool in that order. Each trial's four-cycles are counted on its
    packed rows. The returned code has the identical null space.
    """
    _check_count("seed", seed, 0)
    r = c.n - c.k
    check_pool(c, pool)
    words = pool.words
    span = Reducer()    # the span of the classes walked so far
    classes = []        # ({pool index: nonzero residue}, rank added)
    # the pool is sorted by (weight, value): each weight class is one run
    by_weight = groupby(range(len(words)), key=lambda i: words[i].bit_count())
    for _, run in by_weight:
        if len(span) == r:
            break
        pivots = sorted(span.pivots.items(), reverse=True)
        residues = {i: v for i in run if (v := _residue(pivots, words[i]))}
        before = len(span)
        for v in residues.values():
            span.insert(v)
        if len(span) > before:
            classes.append((residues, len(span) - before))
    if len(span) < r:
        raise ValueError("pool does not span the dual code")
    rng = np.random.default_rng(seed)
    packed = ints_to_words(words, c.n)
    best: int | None = None
    best_picks: list[int] = []
    for trial in range(_PCM_TRIALS):
        # trial 0 keeps the pool's order; the others' jitter is a random
        # permutation, so it breaks every weight tie, and a class's order by
        # its own entries of the jitter is lexsort's tie order
        jitter = (rng.permutation(len(words)).tolist() if trial
                  else range(len(words)))
        picks = []
        for residues, quota in classes:
            picked = Reducer()
            for i in sorted(residues, key=jitter.__getitem__):
                if picked.insert(residues[i]):
                    picks.append(i)
                    if len(picked) == quota:
                        break
        picks.sort()  # pool order: by (weight, value)
        score = _four_cycles(packed[picks])
        if best is None or score < best:
            best, best_picks = score, picks
    new = LinearCode(BitMatrix([words[i] for i in best_picks], c.n))
    if new.g != c.g:     # G is a function of the code alone
        raise AssertionError("optimized PCM changed the code")
    return new


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
    used = c.g.to_numpy().any(axis=0)
    frozen = tuple(np.flatnonzero(~used).tolist())
    if not frozen:
        return c, t, frozen
    active = np.flatnonzero(used).tolist()
    t_sub = t.take_rows(active).take_cols(active)
    if rank(t_sub) != len(active):
        raise ReductionError(
            f"dropping {len(frozen)} frozen positions breaks invertibility")
    h_cut = c.h.take_cols(active)
    kept = h_cut.take_rows(list(independent_rows(h_cut)))
    if not kept.rows:
        raise ReductionError("reduction left a code without redundancy")
    reduced = LinearCode(kept)
    if reduced.k != c.k:
        raise AssertionError("reduction changed the code dimension")
    return reduced, t_sub, frozen
