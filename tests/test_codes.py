"""Linear code container, distance search, PCM optimization."""

import heapq
from collections import Counter
from itertools import combinations, islice
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaedkit import codes
from gaedkit.codes import (DualWordPool, LinearCode, ReductionError,
                           _macwilliams, check_pool, four_cycle_count,
                           low_weight_dual_search, min_distance, optimize_pcm,
                           reduce_zero_columns, weight_distribution)
from gaedkit.decoders import stack_redundant_pcm
from gaedkit.gf2 import (BitMatrix, Reducer, independent_rows,
                         null_space_basis, rank, xor_rows)

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


def span_words(rows):
    """Every XOR combination of the int rows, one xor_rows call per mask."""
    return (xor_rows(rows, mask) for mask in range(1 << len(rows)))


def sorted_enumeration_oracle(c, target_count):
    """The exhaustive dual-word search as a plain int loop: the first
    target_count nonzero dual words in (weight, value) order."""
    hrows = [c.h.row_bits(i) for i in range(c.n - c.k)]
    words = heapq.nsmallest(target_count, filter(None, span_words(hrows)),
                            key=lambda v: (v.bit_count(), v))
    return DualWordPool(tuple(words), c.n)


def bits_to_int(bits) -> int:
    return int(sum(int(b) << j for j, b in enumerate(bits)))


def test_construction_and_validation():
    c = hamming74()
    assert (c.n, c.k) == (7, 4)
    assert c.rate == pytest.approx(4 / 7)
    assert (c.h @ c.g.transpose()).shape == (3, 4)
    assert (c.h @ c.g.transpose()).is_zero()
    with pytest.raises(ValueError, match="rank deficient"):
        LinearCode.from_pcm(BitMatrix.from_rows([[1, 1, 0], [1, 1, 0]]))
    with pytest.raises(ValueError, match="not usable"):
        LinearCode.from_pcm(BitMatrix([], 3))
    with pytest.raises(ValueError, match="rank deficient"):
        LinearCode(BitMatrix([0b011, 0b011], 3))


def test_encode_and_contains():
    c = hamming74()
    rng = np.random.default_rng(50)
    for _ in range(30):
        msg = rng.integers(0, 2, size=c.k, dtype=np.uint8)
        cw = c.encode(msg)
        assert cw.shape == (7,)
        assert not (c.h.to_numpy() @ cw % 2).any()
    with pytest.raises(ValueError, match="4 bits"):
        c.encode([1, 0])
    # no entry other than 0 or 1 may count by its low bit or truncate
    for bad in ([2, 0, 0, 0], [0, 1, 0.5, 1], [[0, 1, 1, 0], [0, 0, 3, 0]]):
        with pytest.raises(ValueError, match="message must hold only 0 and 1"):
            c.encode(bad)


def test_codeword_table():
    c = hamming74()
    table = c.codeword_table()
    assert table.shape == (16, 7)
    words = {bits_to_int(row) for row in table}
    assert len(words) == 16
    assert (c.h @ BitMatrix(words, 7).transpose()).is_zero()
    # closure under addition
    rows = list(words)
    assert all((a ^ b) in words for a in rows[:6] for b in rows[:6])
    # 2^23 rows would take 200 MB: refused by k
    with pytest.raises(ValueError, match="k <= 22"):
        LinearCode(BitMatrix.from_rows([[1] * 24])).codeword_table()


def test_weight_distribution_hamming():
    c = hamming74()
    grows = [c.g.row_bits(i) for i in range(c.k)]
    assert weight_distribution(grows, c.n) == [1, 0, 0, 7, 7, 0, 0, 1]
    # the dual of the (7,4) Hamming code is the simplex code: seven weight-4 words
    hrows = [c.h.row_bits(i) for i in range(3)]
    assert weight_distribution(hrows, c.n) == [1, 0, 0, 0, 7, 0, 0, 0]


def test_weight_distribution_rejects_dependent_rows():
    # [1, 1] once counted the zero word and the word 1 twice each
    for rows in ([1, 1], [0b011, 0b101, 0b110], [0]):
        with pytest.raises(ValueError, match="independent rows"):
            weight_distribution(rows, 3)
    assert weight_distribution([], 2) == [1, 0, 0]


def test_weight_distribution_matches_enumeration():
    rng = np.random.default_rng(51)
    for _ in range(40):
        c = random_code(rng, int(rng.integers(4, 13)), int(rng.integers(1, 4)))
        table = c.codeword_table()
        counts = np.bincount(table.sum(axis=1), minlength=c.n + 1)
        grows = [c.g.row_bits(i) for i in range(c.k)]
        assert weight_distribution(grows, c.n) == counts.tolist()
    # an all-ones row weighs n: from 256 on, more than a uint8 holds
    for n in (255, 256, 300):
        assert weight_distribution([(1 << n) - 1], n) == [1] + [0] * (n - 1) + [1]


def test_weight_distribution_across_many_chunks(monkeypatch):
    # 8-row chunks of two packed words: every buffer is refilled 2^16 times
    monkeypatch.setattr(codes, "_CHUNK_BITS", 3)
    rng = np.random.default_rng(58)
    c = random_code(rng, 70, 51)
    grows = [c.g.row_bits(i) for i in range(c.k)]
    assert c.k == 19
    counts = Counter(w.bit_count() for w in span_words(grows))
    want = [counts[j] for j in range(c.n + 1)]
    assert weight_distribution(grows, c.n) == want
    assert min_distance(c) == min(j for j in counts if j)


def generator_code(rng, n, k, zero=0, repeat=0):
    """A random (n, k) code whose G has `zero` all-zero columns and
    `repeat` columns that copy another, at random positions."""
    while True:
        g = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
        g[:, :zero] = 0
        g[:, zero:zero + repeat] = g[:, n - repeat:]
        g = BitMatrix.from_numpy(g[:, rng.permutation(n)])
        if rank(g) == k:
            return LinearCode(null_space_basis(g))


def enumerated_distance(c):
    return next(j for j, count in
                enumerate(weight_distribution(list(c.g), c.n)) if j and count)


def test_min_distance_primal_vs_dual(monkeypatch):
    rng = np.random.default_rng(52)
    cases = [hamming74()] + [random_code(rng, int(rng.integers(5, 15)),
                                         int(rng.integers(2, 6)))
                             for _ in range(40)]
    primals = [min_distance(c) for c in cases]
    assert primals[0] == 3
    # the information-set search against the weight distribution; 65 and
    # 130 columns take two and three packed words
    shapes = [(n, 1) for n in (2, 9, 65, 130)]
    shapes += [(n, n - 1) for n in (2, 9, 21)]
    shapes += [(40, 19), (50, 20), (65, 21), (130, 22), (65, 8), (130, 12)]
    wide = []
    for n, k in shapes:
        wide.append(generator_code(rng, n, k))
        if n - k >= 3:
            wide.append(generator_code(rng, n, k, zero=1, repeat=2))
    # near rate 1/3 the lightest word is often found only at the level
    # where the bound first reaches it, so a bound one too high shows
    for _ in range(200):
        n = int(rng.integers(2, 40))
        k = int(rng.integers(1, min(n, 16)))
        zero = int(rng.integers(0, min(n - k, 2) + 1))
        repeat = int(rng.integers(0, min(n - k - zero, 2) + 1))
        wide.append(generator_code(rng, n, k, zero, repeat))
    for c in wide:
        assert min_distance(c) == enumerated_distance(c), c
    # 8-word levels: past them the search ends with the chunked walk
    fallbacks = []
    with monkeypatch.context() as m:
        m.setattr(codes, "_CHUNK_BITS", 3)
        m.setattr(codes, "weight_distribution",
                  lambda rows, n: fallbacks.append(n) or
                  weight_distribution(rows, n))
        small = [c for c in wide if c.k <= 12]
        for c in small:
            assert min_distance(c) == enumerated_distance(c), c
    assert 0 < len(fallbacks) < len(small)
    monkeypatch.setattr(codes, "_MAX_PRIMAL", 0)  # the MacWilliams route
    for c, primal in zip(cases, primals):
        dual = min_distance(c)
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
        min_distance(c)


def test_low_weight_search_enumerates_small_duals():
    c = hamming74()
    pool = low_weight_dual_search(c, target_count=20)
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
             for n in (8, 63, 64, 65, 100, 130, 255, 256, 300)
             for _ in range(2)]
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
    # an all-ones check row weighs n, which a uint8 holds only up to 255
    for n in (255, 256, 300):
        c = LinearCode(BitMatrix([(1 << n) - 1, *BitMatrix.random(3, n, rng)],
                                 n))
        for target in (1, 7, 16):
            pool = low_weight_dual_search(c, target)
            assert pool == sorted_enumeration_oracle(c, target), (n, target)


def test_low_weight_search_across_many_chunks(monkeypatch):
    # 8-word chunks: the cutoff falls across many chunk boundaries, so a pool
    # that kept a view of a refilled buffer instead of a copy would differ
    monkeypatch.setattr(codes, "_CHUNK_BITS", 3)
    rng = np.random.default_rng(59)
    for n, r in ((12, 7), (70, 10), (130, 12), (40, 16)):
        c = random_code(rng, n, r)
        for target in (1, 7, 300, (1 << r) - 1, 1 << r):
            pool = low_weight_dual_search(c, target)
            assert pool == sorted_enumeration_oracle(c, target), (n, r, target)


@st.composite
def full_rank_codes(draw, min_n=2, max_n=20):
    """Codes with min_n <= n <= max_n and r <= 10: a systematic H = [I | A]
    whose rows are mixed by a unit lower-triangular map and whose columns
    are permuted, so every full-rank code in that range can be drawn."""
    r = draw(st.integers(1, 10))
    n = draw(st.integers(max(r + 1, min_n), max_n))
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


def free_columns_oracle(h):
    """The columns that lead no vector of h's row space, ascending."""
    span = Reducer()
    for row in h:
        span.insert(row)
    return [f for f in range(h.cols) if f not in span.pivots]


def two_pass_null_space_basis(h):
    """The former null_space_basis, kept as oracle: the free columns from
    an echelon basis of the rows, then each free column's witness over the
    pivot columns."""
    free = free_columns_oracle(h)
    cols = list(h.transpose())
    col_span = Reducer()
    for p in set(range(h.cols)).difference(free):
        col_span.insert(cols[p], 1 << p)
    return BitMatrix(((1 << f) | col_span.reduce(cols[f])[1] for f in free),
                     h.cols)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(n=st.integers(2, 130), data=st.data())
def test_generator_is_one_basis_per_code(n, data):
    # up to 130 columns: rows of one to three packed words
    r = data.draw(st.integers(1, n - 1))
    zeros = data.draw(st.integers(0, n - r))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cleared = sum(1 << int(j) for j in rng.choice(n, size=zeros, replace=False))
    while True:
        h = BitMatrix((row & ~cleared for row in BitMatrix.random(r, n, rng)), n)
        if rank(h) == r:
            break
    c = LinearCode(h)
    assert c.g == two_pass_null_space_basis(h)
    # each row's lowest bit is its free column, in ascending order
    assert [g & -g for g in c.g] == [1 << f for f in free_columns_oracle(h)]
    # the same code from another H: the same G
    assert LinearCode(BitMatrix.random_invertible(r, rng) @ h).g == c.g


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
    msgs = rng.integers(0, 2, size=(batch, c.k), dtype=np.uint8)
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
    # the pool drawn before BitMatrix.random took over the sampled masks
    assert pool.words == (
        0xc5800ba, 0x504030a91, 0x90408c6401, 0x902722882, 0x930960142,
        0x1012175042, 0x103c003a12, 0x11b0091230, 0x141a202168,
        0x2480834894, 0x3050530809, 0x3891003421, 0x4990c22042,
        0xa00740e880, 0x121940a8d, 0x2c6184036, 0x2d040ea82, 0x4c84400db,
        0x12c1000f83, 0x1e80449601, 0x21408324c9, 0x2508410d23,
        0x29c4084891, 0x48222010d7, 0x4a00b00a95, 0x500261830e,
        0x50c3c69000, 0x58ac104c80, 0x6820320562, 0x820ec02883)


def test_four_cycle_count_matches_brute():
    def brute(m):
        total = 0
        for i in range(m.rows):
            for j in range(i + 1, m.rows):
                for a in range(m.cols):
                    for b in range(a + 1, m.cols):
                        both = 1 << a | 1 << b
                        if m.row_bits(i) & m.row_bits(j) & both == both:
                            total += 1
        return total

    rng = np.random.default_rng(55)
    for _ in range(30):
        m = BitMatrix.from_numpy(rng.integers(0, 2, size=(5, 8), dtype=np.uint8))
        assert four_cycle_count(m) == brute(m)
    assert four_cycle_count(BitMatrix.identity(4)) == 0


def pair_loop_four_cycles(rows) -> int:
    """The former four_cycle_count: a Python loop over the row pairs."""
    total = 0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            shared = (rows[i] & rows[j]).bit_count()
            total += shared * (shared - 1) // 2
    return total


@settings(derandomize=True, deadline=None, database=None)
@given(data=st.data(), n=st.sampled_from([0, 1, 7, 63, 64, 65, 130]),
       count=st.integers(0, 12))
def test_four_cycle_count_matches_pair_loop(data, n, count):
    # 0 and 1 rows have no pairs; past 64 columns a row spans two words
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1),
                              min_size=count, max_size=count))
    assert four_cycle_count(BitMatrix(rows, n)) == pair_loop_four_cycles(rows)


def test_optimize_pcm_preserves_code_and_lowers_weight():
    rng = np.random.default_rng(56)
    for _ in range(20):
        c = random_code(rng, int(rng.integers(8, 16)), int(rng.integers(3, 6)))
        pool = low_weight_dual_search(c, target_count=1 << (c.n - c.k))
        better = optimize_pcm(c, pool, seed=1)
        r = c.n - c.k
        assert better.n == c.n and better.k == c.k
        assert rank(BitMatrix([*better.h, *c.h], c.n)) == r  # same row space
        assert better.h.weight <= c.h.weight
        # greedy over the full dual pool reaches the lightest possible basis
        again = optimize_pcm(c, pool, seed=1)
        assert again.h == better.h


def test_optimize_pcm_reaches_the_lightest_basis():
    # greedy selection in weight order is matroid greedy: every tie-break
    # reaches the minimum total weight, so optimize_pcm scores four-cycles
    rng = np.random.default_rng(57)
    for seed in range(30):
        c = random_code(rng, int(rng.integers(5, 11)), int(rng.integers(2, 5)))
        r = c.n - c.k
        dual = [w for w in span_words(list(c.h)) if w]
        lightest = min(sum(w.bit_count() for w in basis)
                       for basis in combinations(dual, r)
                       if rank(BitMatrix(basis, c.n)) == r)
        pool = DualWordPool(tuple(dual), c.n)
        assert optimize_pcm(c, pool, seed=seed).h.weight == lightest


def test_dual_word_pool_sorts_dedups_and_checks_range():
    c = hamming74()
    rows = tuple(HAMMING_74_H)
    # the three rows given three times are three words, not nine
    tripled = DualWordPool(rows * 3, 7)
    assert tripled.words == (85, 102, 120)
    with pytest.raises(ValueError, match="needs 9 dual words"):
        stack_redundant_pcm(c, tripled, 3)
    assert DualWordPool((120, 85, 102, 85), 7).words == (85, 102, 120)
    with pytest.raises(ValueError, match="nonzero .*got 0x0$"):
        DualWordPool((0, 5, 5, 1 << 9), 7)
    with pytest.raises(ValueError, match="at or above n=7, got 0x200"):
        DualWordPool((5, 5, 1 << 9), 7)
    with pytest.raises(ValueError, match="at or above n=7, got 0x80"):
        DualWordPool((1 << 7,), 7)
    assert DualWordPool((1 << 6,), 7).words == (1 << 6,)


@settings(derandomize=True, deadline=None, database=None)
@given(weights=st.lists(st.integers(1, 4), min_size=1, max_size=60),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_lexsort_tie_break_matches_sorted_key(weights, seed, data):
    # optimize_pcm sorts the kept words of each weight class of a
    # weight-sorted pool by their entries of a jitter permutation: class by
    # class, the order of the former lexsort((jitter, weights)) over the
    # pool, restricted to the kept words. Few distinct weights: many ties
    weights = sorted(weights)
    jitter = np.random.default_rng(seed).permutation(len(weights)).tolist()
    keep = data.draw(st.lists(st.booleans(), min_size=len(weights),
                              max_size=len(weights)))
    lex = np.lexsort((jitter, weights)).tolist()
    assert lex == sorted(range(len(weights)),
                         key=lambda i: (weights[i], jitter[i]))
    per_class = []
    for w in sorted(set(weights)):
        kept = [i for i in range(len(weights)) if weights[i] == w and keep[i]]
        per_class += sorted(kept, key=jitter.__getitem__)
    assert per_class == [i for i in lex if keep[i]]


@settings(derandomize=True, deadline=None, database=None)
@given(c=st.one_of(full_rank_codes(), full_rank_codes(min_n=65, max_n=130)),
       seed=st.integers(0, 2**32 - 1))
def test_check_pool_matches_generator_product(c, seed):
    # rows of one or more packed words: a pool is refused exactly when some
    # word has an odd overlap with a row of G
    rng = np.random.default_rng(seed)
    randoms = [w for w in BitMatrix.random(20, c.n, rng) if w]
    duals = [xor_rows(list(c.h), int(m))
             for m in rng.integers(1, 1 << c.h.rows, size=5)]

    def agrees(words):
        pool = DualWordPool(tuple(words), c.n)
        if not (c.g @ BitMatrix(pool.words, c.n).transpose()).is_zero():
            with pytest.raises(ValueError, match="outside the dual code"):
                check_pool(c, pool)
        else:
            check_pool(c, pool)

    for w in randoms + duals:
        agrees([w])
    agrees(duals)   # whole pools, with and without words from outside
    agrees(duals + randoms[:int(rng.integers(0, 4))])


def greedy_trials_oracle(c, pool, seed):
    """The former optimize_pcm: a full greedy pass over the pool per trial,
    in lexsort's jittered order, each scored by the pair loop, behind the
    former check_pool's row-by-row product. Returns (rows, score, code)."""
    r = c.n - c.k
    words = list(pool.words)
    if pool.n != c.n:
        raise ValueError("pool length does not match the code")
    if not (BitMatrix(pool.words, c.n) @ c.g.transpose()).is_zero():
        raise ValueError("pool contains a word outside the dual code")
    weights = [w.bit_count() for w in words]
    rng = np.random.default_rng(seed)
    best = None
    best_rows = []
    for trial in range(codes._PCM_TRIALS):
        if trial == 0:
            order = range(len(words))
        else:
            order = np.lexsort((rng.permutation(len(words)), weights)).tolist()
        picks = islice(independent_rows(words[i] for i in order), r)
        rows = sorted((words[order[j]] for j in picks),
                      key=lambda v: (v.bit_count(), v))
        if len(rows) < r:
            raise ValueError("pool does not span the dual code")
        score = pair_loop_four_cycles(rows)
        if best is None or score < best:
            best, best_rows = score, rows
    new_h = BitMatrix(best_rows, c.n)
    if rank(BitMatrix([*new_h, *c.h], c.n)) != r:
        raise AssertionError("optimized PCM changed the code")
    return best_rows, best, LinearCode.from_pcm(new_h)


def dual_words(c):
    return [w for w in span_words(list(c.h)) if w]


@st.composite
def pcm_pools(draw, c):
    """Pools of the shapes construction and tests feed optimize_pcm."""
    kind = draw(st.sampled_from(["one class", "whole dual", "light + H",
                                 "light", "two classes"]))
    if kind == "one class":
        # a single weight class, the one of largest rank: when it spans,
        # the lightest class alone spans
        by_weight = {}
        for w in dual_words(c):
            by_weight.setdefault(w.bit_count(), []).append(w)
        words = max(by_weight.values(),
                    key=lambda ws: rank(BitMatrix(ws, c.n)))
    elif kind == "whole dual":
        # up to 2^10 - 1 words over at most n weights: many ties
        words = dual_words(c)
    elif kind == "two classes":
        lightest = sorted({w.bit_count() for w in dual_words(c)})[:2]
        words = [w for w in dual_words(c) if w.bit_count() in lightest]
    else:
        target = draw(st.integers(1, 3 * (c.n - c.k)))
        words = low_weight_dual_search(c, target).words
        if kind == "light + H":
            # construction's pool: the light words may not span, H's rows do
            words += tuple(c.h)
    return DualWordPool(tuple(words), c.n)


def optimize_or_error(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return str(e)


@settings(derandomize=True, deadline=None, database=None,
          max_examples=400)
@given(c=st.one_of(full_rank_codes(), full_rank_codes(min_n=65, max_n=130)),
       seed=st.integers(0, 2**63 - 1), data=st.data())
@example(c=hamming74(), seed=5, data=None)
def test_optimize_pcm_matches_greedy_trials_oracle(c, seed, data):
    if data is None:    # the simplex dual: seven words of weight 4
        pool = DualWordPool(tuple(dual_words(c)), c.n)
    else:
        pool = data.draw(pcm_pools(c))
    new = optimize_or_error(optimize_pcm, c, pool, seed)
    old = optimize_or_error(greedy_trials_oracle, c, pool, seed)
    if isinstance(old, str):
        assert new == old
        return
    rows, score, code = old
    assert list(new.h) == rows
    assert four_cycle_count(new.h) == score
    assert new.h == code.h and new.g == code.g


def test_optimize_pcm_rejects_bad_pools():
    c = hamming74()
    alien = DualWordPool((0b1,), 7)
    with pytest.raises(ValueError, match="outside the dual"):
        optimize_pcm(c, alien)
    thin = DualWordPool(tuple(sorted(
        [HAMMING_74_H.row_bits(0)], key=lambda w: (w.bit_count(), w))), 7)
    with pytest.raises(ValueError, match="does not span"):
        optimize_pcm(c, thin)
    short = DualWordPool((0b11,), 6)
    with pytest.raises(ValueError, match="does not match"):
        check_pool(c, short)


def padded_hamming():
    """(9, 4) code whose last two coordinates are zero in every codeword."""
    rows = [[*HAMMING_74_H.to_numpy()[i], 0, 0] for i in range(3)]
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
