"""Linear code container, distance search, PCM optimization."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaedkit.codes import (DualWordPool, LinearCode, ReductionError,
                           _iter_combination_chunks, _macwilliams, _weights,
                           check_pool, four_cycle_count, low_weight_dual_search,
                           min_distance, optimize_pcm, reduce_zero_columns,
                           weight_distribution)
from gaedkit.decoders import stack_redundant_pcm
from gaedkit.gf2 import BitMatrix, rank, xor_rows

HAMMING_74_H = BitMatrix.from_rows([
    [1, 0, 1, 0, 1, 0, 1],
    [0, 1, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
])


def hamming74():
    return LinearCode.from_pcm(HAMMING_74_H)


def random_code(rng, n, r):
    """Random code with n columns and r independent checks."""
    while True:
        h = BitMatrix.from_numpy(rng.integers(0, 2, size=(r, n), dtype=np.uint8))
        if rank(h) == r:
            return LinearCode.from_pcm(h)


def sorted_enumeration_oracle(c, target_count):
    """The exhaustive dual-word search as a plain list-and-sort loop.

    Every nonzero dual word becomes a (weight, int) tuple; the list is
    sorted and truncated to the target count.
    """
    hrows = [c.h.row_bits(i) for i in range(c.n - c.k)]
    found = []
    for _, chunk in _iter_combination_chunks(hrows, c.n):
        w = _weights(chunk)
        keep = np.nonzero(w > 0)[0]
        found.extend((int(w[i]), int.from_bytes(chunk[i].tobytes(), "little"))
                     for i in keep)
        if len(found) > 4 * target_count:
            found.sort()
            del found[target_count:]
    found.sort()
    return DualWordPool(tuple(v for _, v in found[:target_count]), c.n, True)


def bits_to_int(bits) -> int:
    return int(sum(int(b) << j for j, b in enumerate(bits)))


def test_construction_and_validation():
    c = hamming74()
    assert (c.n, c.k) == (7, 4)
    assert c.rate == pytest.approx(4 / 7)
    assert c.h @ c.g.transpose() == BitMatrix.zeros(3, 4)
    with pytest.raises(ValueError, match="rank deficient"):
        LinearCode.from_pcm(BitMatrix.from_rows([[1, 1, 0], [1, 1, 0]]))
    with pytest.raises(ValueError, match="not usable"):
        LinearCode.from_pcm(BitMatrix.zeros(0, 3))
    with pytest.raises(ValueError, match="widths disagree"):
        LinearCode(HAMMING_74_H, BitMatrix.zeros(4, 6))
    with pytest.raises(ValueError, match="do not add up"):
        LinearCode(HAMMING_74_H, c.g.take_rows([0, 1, 2]))
    with pytest.raises(ValueError, match="null space"):
        LinearCode(HAMMING_74_H, BitMatrix.identity(7).take_rows([0, 1, 2, 3]))
    with pytest.raises(ValueError, match="rank deficient"):
        LinearCode(BitMatrix([0b011, 0b011], 3), BitMatrix([0b011], 3))
    with pytest.raises(ValueError, match="rank deficient"):
        LinearCode(HAMMING_74_H, c.g.take_rows([0, 1, 2, 2]))


def test_encode_and_contains():
    c = hamming74()
    rng = np.random.default_rng(50)
    for _ in range(30):
        msg = rng.integers(0, 2, size=c.k, dtype=np.uint8)
        cw = c.encode(msg)
        assert cw.shape == (7,)
        assert c.h.mat_vec(bits_to_int(cw)) == 0
    assert c.h.mat_vec(0) == 0
    assert c.h.mat_vec(1) != 0  # weight-1 word cannot be a codeword at d=3
    with pytest.raises(ValueError, match="4 bits"):
        c.encode([1, 0])


def test_codeword_table():
    c = hamming74()
    table = c.codeword_table()
    assert table.shape == (16, 7)
    words = {bits_to_int(row) for row in table}
    assert len(words) == 16
    assert all(c.h.mat_vec(w) == 0 for w in words)
    # closure under addition
    rows = list(words)
    assert all((a ^ b) in words for a in rows[:6] for b in rows[:6])


def test_weight_distribution_hamming():
    c = hamming74()
    grows = [c.g.row_bits(i) for i in range(c.k)]
    assert weight_distribution(grows, c.n) == [1, 0, 0, 7, 7, 0, 0, 1]
    # the dual of the (7,4) Hamming code is the simplex code: seven weight-4 words
    hrows = [c.h.row_bits(i) for i in range(3)]
    assert weight_distribution(hrows, c.n) == [1, 0, 0, 0, 7, 0, 0, 0]


def test_weight_distribution_matches_enumeration():
    rng = np.random.default_rng(51)
    for _ in range(40):
        c = random_code(rng, int(rng.integers(4, 13)), int(rng.integers(1, 4)))
        table = c.codeword_table()
        counts = np.bincount(table.sum(axis=1), minlength=c.n + 1)
        grows = [c.g.row_bits(i) for i in range(c.k)]
        assert weight_distribution(grows, c.n) == counts.tolist()


def test_min_distance_primal_vs_dual():
    c = hamming74()
    assert min_distance(c) == 3
    assert min_distance(c, max_primal=0) == 3   # forces the MacWilliams route
    rng = np.random.default_rng(52)
    for _ in range(40):
        c = random_code(rng, int(rng.integers(5, 15)), int(rng.integers(2, 6)))
        primal = min_distance(c)
        dual = min_distance(c, max_primal=0)
        weights = c.codeword_table().sum(axis=1)
        brute = int(weights[weights > 0].min())
        assert primal == dual == brute


def comb_macwilliams_oracle(dual_counts, n, dual_dim_log):
    """The former transform: every Krawtchouk value K_j(w) as its sum of
    signed binomial products."""
    out = []
    for j in range(n + 1):
        total = 0
        for w, count in enumerate(dual_counts):
            if count:
                kraw = sum((-1) ** s * comb(w, s) * comb(n - w, j - s)
                           for s in range(0, min(w, j) + 1))
                total += count * kraw
        q, rem = divmod(total, 1 << dual_dim_log)
        if rem or q < 0:
            raise AssertionError("MacWilliams transform left a remainder")
        out.append(q)
    return out


def macwilliams_or_error(transform, counts, n, dual_dim_log):
    try:
        return transform(counts, n, dual_dim_log)
    except AssertionError:
        return "AssertionError"


@st.composite
def macwilliams_inputs(draw):
    n = draw(st.integers(0, 70))
    log = draw(st.integers(0, 20))
    counts = draw(st.lists(st.one_of(st.just(0), st.integers(-3, 3),
                                     st.integers(-2**40, 2**40)),
                           min_size=n + 1, max_size=n + 1))
    if draw(st.booleans()):
        # divisible by 2^log, and the weight-0 term dominates: its values
        # K_j(0) = C(n, j) bound every |K_j(w)|, so no entry is negative
        counts = [c << log for c in counts]
        counts[0] = sum(abs(c) for c in counts)
    return counts, n, log


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(args=macwilliams_inputs())
def test_macwilliams_matches_comb_oracle(args):
    assert (macwilliams_or_error(_macwilliams, *args)
            == macwilliams_or_error(comb_macwilliams_oracle, *args))


def test_macwilliams_round_trip():
    rng = np.random.default_rng(54)
    for _ in range(60):
        n = int(rng.integers(2, 17))
        c = random_code(rng, n, int(rng.integers(1, n)))
        grows = [c.g.row_bits(i) for i in range(c.k)]
        hrows = [c.h.row_bits(i) for i in range(c.n - c.k)]
        dual = weight_distribution(hrows, c.n)
        assert _macwilliams(dual, c.n, c.n - c.k) == weight_distribution(grows, c.n)
        assert _macwilliams(weight_distribution(grows, c.n), c.n, c.k) == dual


def test_min_distance_size_guard():
    rng = np.random.default_rng(53)
    c = random_code(rng, 54, 25)   # k = 29, n - k = 25
    with pytest.raises(ValueError, match="too large"):
        min_distance(c, max_primal=26, max_dual=24)


def test_low_weight_search_enumerates_small_duals():
    c = hamming74()
    pool = low_weight_dual_search(c, target_count=20)
    assert pool.complete
    assert len(pool.words) == 7
    assert [w.bit_count() for w in pool.words] == [4] * 7
    check_pool(c, pool)
    assert list(pool.words) == sorted(pool.words, key=lambda w: (w.bit_count(), w))
    with pytest.raises(ValueError, match="target_count"):
        low_weight_dual_search(c, 0)


def test_low_weight_search_matches_sorted_enumeration():
    rng = np.random.default_rng(57)
    # one to three packed words per dual word; r = 19 spans two enumeration
    # chunks of 2^18 words, so the cutoff also falls across a chunk boundary
    cases = [(n, int(rng.integers(3, min(n - 1, 12) + 1)))
             for n in (8, 63, 64, 65, 100, 130) for _ in range(2)]
    cases += [(40, 19)]
    for n, r in cases:
        c = random_code(rng, n, r)
        if r <= 12:
            targets = (1, 7, 300, 1 << r, (1 << r) + 5)
        else:
            targets = (1, 7, 300)
        for target in targets:
            pool = low_weight_dual_search(c, target)
            assert pool == sorted_enumeration_oracle(c, target), (n, r, target)


@st.composite
def full_rank_codes(draw):
    """Codes with n <= 20 and r <= 10: a systematic H = [I | A] whose rows
    are mixed by a unit lower-triangular map and whose columns are permuted,
    so every full-rank code can be drawn."""
    r = draw(st.integers(1, 10))
    n = draw(st.integers(r + 1, 20))
    rows = [(1 << i) | (draw(st.integers(0, (1 << (n - r)) - 1)) << r)
            for i in range(r)]
    for i in range(1, r):
        mix = draw(st.integers(0, (1 << i) - 1))
        for j in range(i):
            if (mix >> j) & 1:
                rows[i] ^= rows[j]
    perm = draw(st.permutations(range(n)))
    permuted = [sum(1 << perm[j] for j in range(n) if (v >> j) & 1) for v in rows]
    return LinearCode.from_pcm(BitMatrix(permuted, n))


def encode_oracle(c, message):
    """The former single-message encoder: XOR the rows of G that the
    message's set bits pick."""
    bits = np.asarray(message, dtype=np.uint8).reshape(-1)
    if bits.size != c.k:
        raise ValueError(f"message must have {c.k} bits")
    mask = sum(1 << i for i in np.flatnonzero(bits & 1).tolist())
    return BitMatrix([xor_rows(tuple(c.g), mask)], c.n).to_numpy()[0]


@settings(derandomize=True, deadline=None, database=None)
@given(c=full_rank_codes(), batch=st.integers(0, 9),
       seed=st.integers(0, 2**32 - 1))
def test_batch_encode_matches_row_oracle(c, batch, seed):
    rng = np.random.default_rng(seed)
    # values above 1 check that only the low bit of each entry counts
    msgs = rng.integers(0, 4, size=(batch, c.k), dtype=np.uint8)
    words = c.encode(msgs)
    assert words.shape == (batch, c.n) and words.dtype == np.uint8
    for msg, word in zip(msgs, words):
        assert np.array_equal(word, encode_oracle(c, msg))
    one = c.encode(msgs[0] if batch else np.ones(c.k, dtype=np.uint8))
    assert one.shape == (c.n,)
    assert np.array_equal(c.encode(msgs.reshape(batch, 1, c.k))[:, 0], words)
    for shape in ((batch, c.k + 1), (c.k - 1,), ()):
        with pytest.raises(ValueError, match=f"must have {c.k} bits"):
            c.encode(np.zeros(shape, dtype=np.uint8))


@settings(derandomize=True, deadline=None, database=None)
@given(c=full_rank_codes(), target=st.integers(1, 1100))
def test_low_weight_search_properties(c, target):
    pool = low_weight_dual_search(c, target)
    assert pool == sorted_enumeration_oracle(c, target)
    keys = [(w.bit_count(), w) for w in pool.words]
    assert keys == sorted(set(keys))
    check_pool(c, pool)


def test_low_weight_search_random_route():
    rng = np.random.default_rng(54)
    c = random_code(rng, 40, 26)   # n - k = 26 forces the sampled search
    pool = low_weight_dual_search(c, target_count=30, seed=3)
    check_pool(c, pool)
    assert len(set(pool.words)) == len(pool.words)
    again = low_weight_dual_search(c, target_count=30, seed=3)
    assert again.words == pool.words


def test_four_cycle_count_matches_brute():
    def brute(m):
        total = 0
        for i in range(m.rows):
            for j in range(i + 1, m.rows):
                for a in range(m.cols):
                    for b in range(a + 1, m.cols):
                        if (m.get(i, a) and m.get(i, b)
                                and m.get(j, a) and m.get(j, b)):
                            total += 1
        return total

    rng = np.random.default_rng(55)
    for _ in range(30):
        m = BitMatrix.from_numpy(rng.integers(0, 2, size=(5, 8), dtype=np.uint8))
        assert four_cycle_count(m) == brute(m)
    assert four_cycle_count(BitMatrix.identity(4)) == 0


def test_optimize_pcm_preserves_code_and_lowers_weight():
    rng = np.random.default_rng(56)
    for _ in range(20):
        c = random_code(rng, int(rng.integers(8, 16)), int(rng.integers(3, 6)))
        pool = low_weight_dual_search(c, target_count=1 << (c.n - c.k))
        better = optimize_pcm(c, pool, seed=1)
        r = c.n - c.k
        assert better.n == c.n and better.k == c.k
        assert rank(better.h.vstack(c.h)) == r     # same row space
        assert better.h.weight <= c.h.weight
        # greedy over the full dual pool reaches the lightest possible basis
        again = optimize_pcm(c, pool, seed=1)
        assert again.h == better.h


def test_dual_word_pool_sorts_dedups_and_checks_range():
    c = hamming74()
    rows = tuple(HAMMING_74_H)
    # the three rows given three times are three words, not nine
    tripled = DualWordPool(rows * 3, 7, True)
    assert tripled.words == (85, 102, 120)
    with pytest.raises(ValueError, match="needs 9 dual words"):
        stack_redundant_pcm(c, tripled, 3)
    assert DualWordPool((120, 85, 102, 85), 7, False).words == (85, 102, 120)
    with pytest.raises(ValueError, match="nonzero .*got 0x0$"):
        DualWordPool((0, 5, 5, 1 << 9), 7, True)
    with pytest.raises(ValueError, match="at or above n=7, got 0x200"):
        DualWordPool((5, 5, 1 << 9), 7, True)
    with pytest.raises(ValueError, match="at or above n=7, got 0x80"):
        DualWordPool((1 << 7,), 7, True)
    assert DualWordPool((1 << 6,), 7, True).words == (1 << 6,)


def test_optimize_pcm_rejects_bad_pools():
    c = hamming74()
    alien = DualWordPool((0b1,), 7, True)
    with pytest.raises(ValueError, match="outside the dual"):
        optimize_pcm(c, alien)
    thin = DualWordPool(tuple(sorted(
        [HAMMING_74_H.row_bits(0)], key=lambda w: (w.bit_count(), w))), 7, True)
    with pytest.raises(ValueError, match="does not span"):
        optimize_pcm(c, thin)
    short = DualWordPool((0b11,), 6, True)
    with pytest.raises(ValueError, match="does not match"):
        check_pool(c, short)


def padded_hamming():
    """(9, 4) code whose last two coordinates are zero in every codeword."""
    rows = [[*(HAMMING_74_H.get(i, j) for j in range(7)), 0, 0] for i in range(3)]
    rows.append([0] * 7 + [1, 0])
    rows.append([0] * 8 + [1])
    return LinearCode.from_pcm(BitMatrix.from_rows(rows))


def test_reduce_zero_columns():
    c = padded_hamming()
    reduced, t_sub, frozen = reduce_zero_columns(c, BitMatrix.identity(9))
    assert frozen == (7, 8)
    assert (reduced.n, reduced.k) == (7, 4)
    assert t_sub == BitMatrix.identity(7)
    base = hamming74()
    table = {bits_to_int(r) for r in base.codeword_table()}
    assert {bits_to_int(r) for r in reduced.codeword_table()} == table

    plain = hamming74()
    same, t_same, none_frozen = reduce_zero_columns(plain, BitMatrix.identity(7))
    assert none_frozen == ()
    assert same is plain and t_same == BitMatrix.identity(7)

    with pytest.raises(ValueError, match="shape"):
        reduce_zero_columns(plain, BitMatrix.identity(6))


def test_reduce_zero_columns_rejects_mixing_maps():
    c = padded_hamming()
    # permutation swapping an active coordinate with a frozen one
    perm = list(range(9))
    perm[0], perm[7] = perm[7], perm[0]
    t = BitMatrix.from_rows([[1 if j == perm[i] else 0 for j in range(9)]
                             for i in range(9)])
    with pytest.raises(ReductionError, match="invertibility"):
        reduce_zero_columns(c, t)
