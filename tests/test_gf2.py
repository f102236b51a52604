"""Bit-packed GF(2) linear algebra against naive oracles."""

from bisect import insort

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaedkit.frobenius import char_poly, companion_matrix
from gaedkit.gf2 import (BitMatrix, SingularMatrixError, bits_to_words,
                         block_diagonal, independent_rows, ints_to_words,
                         invert, null_space_basis, rank, solve_left,
                         words_to_bits, words_to_ints, xor_rows)
from gaedkit.gf2poly import ONE, X, Gf2Poly


def random_matrix(rng, rows, cols):
    return BitMatrix.from_numpy(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))


def naive_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    out = [[0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            s = 0
            for t in range(a.cols):
                s ^= (a.row_bits(i) >> t) & (b.row_bits(t) >> j) & 1
            out[i][j] = s
    return BitMatrix.from_rows(out)


def naive_rank(m: BitMatrix) -> int:
    rows = [m.row_bits(i) for i in range(m.rows)]
    r = 0
    for col in range(m.cols - 1, -1, -1):
        piv = next((i for i in range(r, len(rows)) if (rows[i] >> col) & 1), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and (rows[i] >> col) & 1:
                rows[i] ^= rows[r]
        r += 1
    return r


def test_construction_and_validation():
    m = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert m.shape == (2, 3)
    assert list(m) == [m.row_bits(0), m.row_bits(1)] == [0b101, 0b110]
    assert m.weight == 4
    assert not m.is_zero() and BitMatrix([0, 0], 3).is_zero()
    assert BitMatrix.from_rows([]).shape == (0, 0)
    assert BitMatrix.from_rows([[True, False]]) == BitMatrix([1], 2)
    with pytest.raises(ValueError):
        BitMatrix([4], 2)            # bit outside declared width
    with pytest.raises(ValueError):
        BitMatrix.from_rows([[1, 0], [1]])
    with pytest.raises(ValueError):
        BitMatrix([], -1)
    with pytest.raises(ValueError):
        BitMatrix.from_numpy(np.zeros(3, dtype=np.uint8))
    # one 0/1 rule for both: 2 once read as 0 and 3 as 1
    for bad in ([[1, 2]], [[3, 0]], [[0, -1]], [[0.5, 1]], [["1", "0"]]):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            BitMatrix.from_rows(bad)
    for bad in (np.array([[2, 1]]), np.array([[1, 3]], dtype=np.uint8)):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            BitMatrix.from_numpy(bad)
    # rows are integers: a float or a string is refused, naming the row
    for bad in ([1.5], ["3"], [1, 2.0], (r for r in [0, np.float64(1)])):
        with pytest.raises(ValueError, match=r"row \d must be an integer"):
            BitMatrix(bad, 2)
    with pytest.raises(ValueError, match="row 1 must be an integer, got '3'"):
        BitMatrix([0, "3"], 2)
    for good in (np.array([1, 3], dtype=np.int64), [np.uint8(1), True]):
        rows = list(BitMatrix(good, 2))
        assert rows == [1, int(good[1])] and all(type(r) is int for r in rows)


def test_numpy_roundtrip():
    rng = np.random.default_rng(10)
    for _ in range(50):
        arr = rng.integers(0, 2, size=(rng.integers(1, 9), rng.integers(1, 9)),
                           dtype=np.uint8)
        m = BitMatrix.from_numpy(arr)
        assert np.array_equal(m.to_numpy(), arr)


def test_matmul_matches_naive():
    rng = np.random.default_rng(11)
    for _ in range(120):
        a = random_matrix(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        b = random_matrix(rng, a.cols, int(rng.integers(1, 9)))
        assert a @ b == naive_mul(a, b)
    with pytest.raises(ValueError):
        random_matrix(rng, 2, 3) @ random_matrix(rng, 4, 2)


def test_transpose_and_xor():
    rng = np.random.default_rng(12)
    # 0-row and 0-column shapes, and widths around and past one 64-bit word
    shapes = [(0, 0), (0, 5), (5, 0), (3, 63), (64, 2), (65, 65), (7, 130)]
    shapes += [(int(rng.integers(1, 10)), int(rng.integers(1, 10)))
               for _ in range(60)]
    for rows, cols in shapes:
        a = random_matrix(rng, rows, cols)
        b = random_matrix(rng, a.rows, a.cols)
        at = a.transpose()
        assert at.shape == (cols, rows)
        assert all(at.row_bits(j) >> i & 1 == a.row_bits(i) >> j & 1
                   for i in range(rows) for j in range(cols))
        assert at.transpose() == a
        # transposing commutes with the entrywise XOR
        a_xor_b = BitMatrix(map(int.__xor__, a, b), cols)
        assert list(a_xor_b.transpose()) == list(map(int.__xor__, at,
                                                     b.transpose()))
        c = random_matrix(rng, a.cols, int(rng.integers(1, 10)))
        assert (a @ c).transpose() == c.transpose() @ a.transpose()


def test_power_laws():
    rng = np.random.default_rng(13)
    for _ in range(40):
        a = random_matrix(rng, 6, 6)
        assert a.power(0) == BitMatrix.identity(6)
        assert a.power(1) == a
        assert a.power(5) == a @ a @ a @ a @ a
        assert a.power(2) @ a.power(3) == a.power(5)
    with pytest.raises(ValueError):
        random_matrix(rng, 2, 3).power(2)
    with pytest.raises(ValueError):
        random_matrix(rng, 3, 3).power(-1)


def test_take_and_stack():
    rng = np.random.default_rng(15)
    m = random_matrix(rng, 5, 7)
    sub = m.take_rows([4, 0, 2])
    assert [sub.row_bits(i) for i in range(3)] == [m.row_bits(4), m.row_bits(0), m.row_bits(2)]
    cols = m.take_cols([6, 1, 1])
    assert cols.shape == (5, 3)
    for i in range(5):
        assert [cols.row_bits(i) >> j & 1 for j in range(3)] == \
            [m.row_bits(i) >> j & 1 for j in (6, 1, 1)]
    assert m.take_cols([]).shape == (5, 0)
    wide = random_matrix(rng, 4, 130)
    idx = [129, 0, 64, 64, 63, 129]
    assert wide.take_cols(np.array(idx)) == BitMatrix.from_rows(
        [[wide.row_bits(i) >> j & 1 for j in idx] for i in range(4)])
    for bad in ([7], [-1], [0, 9]):
        with pytest.raises(IndexError, match=f"column {bad[-1]} out of range"):
            m.take_cols(bad)
    # the same rule for rows: a negative index does not count from the end
    for bad in ([5], [-1], [0, 9]):
        with pytest.raises(IndexError, match=f"row {bad[-1]} out of range"):
            m.take_rows(bad)
    with pytest.raises(IndexError, match="row -1 out of range for 3 rows"):
        BitMatrix.identity(3).take_rows([-1])
    assert m.take_rows([]).shape == (0, 7)
    assert m.take_rows(np.array([4, 4])) == m.take_rows([4, 4])
    # stacking is the constructor over both row lists; take_rows splits it
    other = random_matrix(rng, 2, 7)
    st = BitMatrix([*m, *other], 7)
    assert st.take_rows(range(5)) == m and st.take_rows([5, 6]) == other


def test_index_lists_must_be_integers():
    # a bool or float index once read as 1 or 0: take_cols([True, False,
    # True]) took columns 1, 0, 1, take_cols([0.7]) column 0 and
    # take_rows([True]) row 1
    m = BitMatrix.from_rows([[1, 0, 0], [0, 1, 0], [1, 1, 1]])
    for bad in ([True, False, True], [0.7], [True], np.array([1.0])):
        with pytest.raises(ValueError, match="column indices must be integers"):
            m.take_cols(bad)
        with pytest.raises(ValueError, match="row indices must be integers"):
            m.take_rows(bad)
    assert m.take_rows(np.array([2], dtype=np.uint8)) == m.take_rows([2])


def test_rank_matches_naive():
    rng = np.random.default_rng(16)
    for _ in range(150):
        m = random_matrix(rng, int(rng.integers(1, 11)), int(rng.integers(1, 11)))
        assert rank(m) == naive_rank(m)
    assert rank(BitMatrix([0] * 4, 4)) == 0
    assert rank(BitMatrix.identity(5)) == 5


def test_invert():
    rng = np.random.default_rng(17)
    for _ in range(120):
        n = int(rng.integers(1, 16))
        a = BitMatrix.random_invertible(n, rng)
        ai = invert(a)
        assert a @ ai == BitMatrix.identity(n)
        assert ai @ a == BitMatrix.identity(n)
    singular = BitMatrix.from_rows([[1, 1], [1, 1]])
    with pytest.raises(SingularMatrixError):
        invert(singular)
    with pytest.raises(ValueError):
        invert(BitMatrix([0, 0], 3))


def augmented_invert(m: BitMatrix) -> BitMatrix:
    """The augmented Gauss-Jordan that invert replaced, kept as oracle."""
    n = m.rows
    aug = [m.row_bits(i) | (1 << (n + i)) for i in range(n)]
    mask = (1 << n) - 1
    piv_of_col = {}
    for i in range(n):
        v = aug[i]
        for col, prow in piv_of_col.items():
            if (v >> col) & 1:
                v ^= aug[prow]
        lead = v & mask
        if not lead:
            raise SingularMatrixError("matrix is singular")
        col = lead.bit_length() - 1
        for j in range(i):
            if (aug[j] >> col) & 1:
                aug[j] ^= v
        aug[i] = v
        piv_of_col[col] = i
    out = [0] * n
    for row in aug:
        out[(row & mask).bit_length() - 1] = row >> n
    return BitMatrix(out, n)


def test_invert_matches_augmented_oracle():
    rng = np.random.default_rng(18)
    cases = [random_matrix(rng, n, n) for n in rng.integers(0, 9, size=2000)]
    for n in (16, 32, 64, 128):
        cases += [random_matrix(rng, n, n) for _ in range(6)]
        cases += [BitMatrix.random_invertible(n, rng) for _ in range(6)]
    singular = 0
    for m in cases:
        try:
            want = augmented_invert(m)
        except SingularMatrixError:
            singular += 1
            with pytest.raises(SingularMatrixError):
                invert(m)
            continue
        assert invert(m) == want
    assert 0 < singular < len(cases)


def test_random_invertible_is_invertible_and_seeded():
    a = BitMatrix.random_invertible(12, np.random.default_rng(99))
    b = BitMatrix.random_invertible(12, np.random.default_rng(99))
    assert a == b
    assert rank(a) == 12


def test_null_space_basis():
    rng = np.random.default_rng(18)
    for _ in range(120):
        m = random_matrix(rng, int(rng.integers(1, 9)), int(rng.integers(1, 12)))
        basis = null_space_basis(m)
        assert basis.rows == m.cols - rank(m)
        assert rank(basis) == basis.rows
        assert (m @ basis.transpose()).is_zero()
        # every vector in the span is annihilated too
        if basis.rows:
            combo = 0
            for v in basis:
                if rng.integers(0, 2):
                    combo ^= v
            assert (m @ BitMatrix([combo], m.cols).transpose()).is_zero()


def test_solve_left():
    rng = np.random.default_rng(19)
    for _ in range(120):
        m = random_matrix(rng, int(rng.integers(1, 9)), int(rng.integers(1, 12)))
        combo = int(rng.integers(0, 1 << m.rows))
        y = 0
        for i in range(m.rows):
            if (combo >> i) & 1:
                y ^= m.row_bits(i)
        x = solve_left(m, y)
        assert x is not None
        back = 0
        for i in range(m.rows):
            if (x >> i) & 1:
                back ^= m.row_bits(i)
        assert back == y
    # rows of I(2) cannot produce [1,1,1] of a wider system
    m = BitMatrix.from_rows([[1, 0, 0], [0, 1, 0]])
    assert solve_left(m, 0b111) is None
    assert solve_left(m, 0) == 0


def inline_independent_rows(rows):
    """The incremental-pivot loop independent_rows replaced, kept as oracle."""
    pivots = {}
    kept = []
    for i, row in enumerate(rows):
        v = row
        while v:
            lead = v.bit_length() - 1
            if lead in pivots:
                v ^= pivots[lead]
            else:
                pivots[lead] = v
                kept.append(i)
                break
    return kept


def test_independent_rows_matches_inline_loop():
    rng = np.random.default_rng(23)
    for _ in range(300):
        cols = int(rng.integers(1, 12))
        rank_cap = int(rng.integers(1, cols + 1))
        # rows drawn from a low-rank span, so most are dependent, plus
        # explicit zero rows and duplicates of earlier rows
        span = [int(x) for x in rng.integers(0, 1 << cols, size=rank_cap)]
        rows = []
        for _ in range(int(rng.integers(0, 3 * cols + 4))):
            pick = rng.random()
            if pick < 0.15:
                rows.append(0)
            elif pick < 0.3 and rows:
                rows.append(rows[int(rng.integers(0, len(rows)))])
            else:
                v = 0
                for b in span:
                    if rng.integers(0, 2):
                        v ^= b
                rows.append(v)
        got = list(independent_rows(rows))
        assert got == inline_independent_rows(rows)
        assert len(got) == rank(BitMatrix(rows, cols))
    assert list(independent_rows([])) == []
    assert list(independent_rows([0, 0])) == []


def test_companion_matrix():
    # x^2 + x + 1: subdiagonal one, coefficients down the last column
    c = companion_matrix(Gf2Poly(0b111))
    assert c == BitMatrix.from_rows([[0, 1], [1, 1]])
    rng = np.random.default_rng(21)
    for _ in range(60):
        d = int(rng.integers(1, 12))
        f = Gf2Poly((1 << d) | int(rng.integers(0, 1 << d)))
        assert char_poly(companion_matrix(f)) == f
    with pytest.raises(ValueError):
        companion_matrix(ONE)


def brute_char_poly(m: BitMatrix) -> Gf2Poly:
    n = m.rows
    # Laplace expansion of det(xI + A) over GF(2)[x]
    entries = [[(X if i == j else Gf2Poly(0)) + Gf2Poly(m.row_bits(i) >> j & 1)
                for j in range(n)] for i in range(n)]

    def det(rows, cols):
        if not cols:
            return ONE
        i = rows[0]
        acc = Gf2Poly(0)
        for idx, j in enumerate(cols):
            if not entries[i][j].is_zero():
                acc = acc + entries[i][j] * det(rows[1:], cols[:idx] + cols[idx + 1:])
        return acc

    return det(list(range(n)), list(range(n)))


def test_char_poly_matches_brute_force():
    rng = np.random.default_rng(22)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        m = random_matrix(rng, n, n)
        assert char_poly(m) == brute_char_poly(m)
    assert char_poly(BitMatrix.identity(3)) == brute_char_poly(BitMatrix.identity(3))
    with pytest.raises(ValueError):
        char_poly(BitMatrix([0, 0], 3))


def row_list_char_poly_oracle(m: BitMatrix) -> Gf2Poly:
    """The former Hessenberg reduction on a list of row ints, with each
    column operation a loop over the rows."""
    n = m.rows
    if n == 0:
        return ONE
    a = list(m)

    def col_xor(dst, src):
        for i in range(n):
            a[i] ^= ((a[i] >> src) & 1) << dst

    def col_swap(c1, c2):
        for i in range(n):
            if ((a[i] >> c1) ^ (a[i] >> c2)) & 1:
                a[i] ^= (1 << c1) | (1 << c2)

    for c in range(n - 2):
        piv = next((r for r in range(c + 1, n) if (a[r] >> c) & 1), None)
        if piv is None:
            continue
        if piv != c + 1:
            a[c + 1], a[piv] = a[piv], a[c + 1]
            col_swap(c + 1, piv)
        for r in range(c + 2, n):
            if (a[r] >> c) & 1:
                a[r] ^= a[c + 1]
                col_xor(c + 1, r)
    p = [ONE]
    for k in range(1, n + 1):
        term = (X + Gf2Poly((a[k - 1] >> (k - 1)) & 1)) * p[k - 1]
        sub = 1
        for i in range(k - 1, 0, -1):
            sub &= (a[i] >> (i - 1)) & 1
            if not sub:
                break
            if (a[i - 1] >> (k - 1)) & 1:
                term = term + p[i - 1]
        p.append(term)
    return p[n]


def test_char_poly_matches_row_list_oracle():
    rng = np.random.default_rng(25)
    for _ in range(120):
        n = int(rng.integers(0, 70))
        m = BitMatrix.from_numpy((rng.random((n, n)) < rng.random())
                                 .astype(np.uint8))
        assert char_poly(m) == row_list_char_poly_oracle(m)
    for _ in range(10):
        # a permutation plus a few ones, like the construction's draws
        perm = np.eye(64, dtype=np.uint8)[rng.permutation(64)]
        m = BitMatrix.from_numpy(perm ^ (rng.random((64, 64)) < 0.004))
        assert char_poly(m) == row_list_char_poly_oracle(m)
    # repeated blocks: many unit vectors close at once, with polynomial 1
    blocks = block_diagonal([companion_matrix(Gf2Poly(0b111))] * 6
                            + [companion_matrix(Gf2Poly(0b11) ** 3)] * 5
                            + [BitMatrix.identity(4)]
                            + [companion_matrix(Gf2Poly(0b1011))] * 3)
    s = BitMatrix.random_invertible(blocks.rows, rng)
    for m in (BitMatrix.identity(0), BitMatrix.identity(1),
              BitMatrix([0], 1), BitMatrix.identity(64),
              s @ blocks @ invert(s)):
        assert char_poly(m) == row_list_char_poly_oracle(m)


def test_char_poly_similarity_invariant():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 10))
        a = random_matrix(rng, n, n)
        s = BitMatrix.random_invertible(n, rng)
        assert char_poly(s @ a @ invert(s)) == char_poly(a)


def test_cayley_hamilton():
    rng = np.random.default_rng(24)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        a = random_matrix(rng, n, n)
        p = char_poly(a)
        acc = np.zeros((n, n), dtype=np.uint8)
        for i in range(p.bits.bit_length()):
            if (p.bits >> i) & 1:
                acc ^= a.power(i).to_numpy()
        assert not acc.any()


def test_block_diagonal():
    a = BitMatrix.from_rows([[1, 1], [0, 1]])
    b = BitMatrix.from_rows([[1]])
    d = block_diagonal([a, b])
    assert d == BitMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert char_poly(d) == char_poly(a) * char_poly(b)
    with pytest.raises(ValueError):
        block_diagonal([BitMatrix([0, 0], 3)])


# -- properties -----------------------------------------------------------

@st.composite
def bit_matrices(draw, rows=None, cols=None):
    rows = draw(st.integers(0, 9)) if rows is None else rows
    cols = draw(st.integers(0, 9)) if cols is None else cols
    bits = draw(st.lists(st.integers(0, (1 << cols) - 1),
                         min_size=rows, max_size=rows))
    return BitMatrix(bits, cols)


@settings(derandomize=True, deadline=None, database=None)
@given(m=st.integers(0, 9).flatmap(lambda n: bit_matrices(rows=n, cols=n)))
def test_invert_property(m):
    if rank(m) == m.rows:
        eye = BitMatrix.identity(m.rows)
        assert invert(m) @ m == eye and m @ invert(m) == eye
    else:
        with pytest.raises(SingularMatrixError):
            invert(m)


@settings(derandomize=True, deadline=None, database=None)
@given(rows=bit_matrices(), data=st.data())
def test_xor_rows_property(rows, data):
    mask = data.draw(st.integers(0, (1 << rows.rows) - 1))
    naive = naive_mul(BitMatrix([mask], rows.rows), rows)
    assert xor_rows(list(rows), mask) == naive.row_bits(0)


@settings(derandomize=True, deadline=None, database=None)
@given(dims=st.lists(st.integers(0, 7), min_size=4, max_size=4),
       data=st.data())
def test_matmul_associative_property(dims, data):
    p, q, r, t = dims
    a = data.draw(bit_matrices(rows=p, cols=q))
    b = data.draw(bit_matrices(rows=q, cols=r))
    c = data.draw(bit_matrices(rows=r, cols=t))
    assert (a @ b) @ c == a @ (b @ c)


@settings(derandomize=True, deadline=None, database=None)
@given(m=bit_matrices())
def test_independent_rows_count_property(m):
    assert len(list(independent_rows(m))) == rank(m)


def loop_to_numpy(m: BitMatrix) -> np.ndarray:
    """The former per-bit BitMatrix.to_numpy loop, kept as the oracle."""
    out = np.zeros((m.rows, m.cols), dtype=np.uint8)
    for i, r in enumerate(m):
        while r:
            low = r & -r
            out[i, low.bit_length() - 1] = 1
            r ^= low
    return out


@settings(derandomize=True, deadline=None, database=None)
@given(m=st.sampled_from([0, 1, 7, 8, 63, 64, 65, 127, 128, 130]).flatmap(
    lambda n: bit_matrices(cols=n)))
def test_packed_layout_property(m):
    rows = list(m)
    words = ints_to_words(rows, m.cols)
    assert words.shape == (m.rows, -(-m.cols // 64))
    assert words_to_ints(words) == rows
    assert np.array_equal(words_to_bits(words, m.cols), loop_to_numpy(m))
    assert np.array_equal(bits_to_words(loop_to_numpy(m)), words)
    assert np.array_equal(m.to_numpy(), loop_to_numpy(m))
    assert BitMatrix.from_numpy(m.to_numpy()) == m
    # lexsort over the words, most significant word last, sorts as ints do;
    # the dual-word search relies on this
    if words.shape[1]:
        assert [rows[i] for i in np.lexsort(words.T)] == sorted(rows)


# -- the span tracker against the eliminations it replaced -----------------

def oracle_echelon(bits):
    """The former full reduced echelon, kept as oracle: (rows, pivots)."""
    pivots = []
    r = 0
    for row_idx in range(len(bits)):
        v = bits[row_idx]
        for piv_row, piv_col in enumerate(pivots):
            if (v >> piv_col) & 1:
                v ^= bits[piv_row]
        if v:
            col = v.bit_length() - 1
            for piv_row in range(r):
                if (bits[piv_row] >> col) & 1:
                    bits[piv_row] ^= v
            bits[r] = v
            pivots.append(col)
            r += 1
    del bits[r:]
    return bits, pivots


def oracle_rank(m):
    return len(oracle_echelon(list(m))[1])


def oracle_invert(m):
    n = m.rows
    bits, pivots = oracle_echelon([(r << n) | (1 << i) for i, r in enumerate(m)])
    if any(p < n for p in pivots):
        raise SingularMatrixError("matrix is singular")
    out = [0] * n
    for row, p in zip(bits, pivots):
        out[p - n] = row & ((1 << n) - 1)
    return BitMatrix(out, n)


def oracle_null_space_basis(m):
    bits, pivots = oracle_echelon(list(m))
    basis = []
    for f in (j for j in range(m.cols) if j not in pivots):
        v = 1 << f
        for row, p in zip(bits, pivots):
            if (row >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return BitMatrix(basis, m.cols)


class OracleReducer:
    """The former sorted-list span tracker, kept as oracle."""

    def __init__(self):
        self.rows = []

    def reduce(self, v):
        combo = 0
        for rv, rw in self.rows:
            if (v >> (rv.bit_length() - 1)) & 1:
                v ^= rv
                combo ^= rw
        return v, combo

    def insert(self, v, witness=0):
        v, combo = self.reduce(v)
        if not v:
            return False
        insort(self.rows, (v, combo ^ witness), key=lambda row: -row[0])
        return True


def oracle_solve_left(m, y):
    span = OracleReducer()
    for i, row in enumerate(m):
        span.insert(row, 1 << i)
    v, combo = span.reduce(y)
    return None if v else combo


@st.composite
def span_matrices(draw):
    """Square, wide and tall matrices whose rows come from a drawn span, so
    low rank, zero rows and duplicate rows all occur."""
    side = draw(st.integers(0, 9))
    other = side + draw(st.integers(1, 5))
    rows, cols = draw(st.sampled_from([(side, side), (side, other),
                                       (other, side)]))
    gens = draw(st.lists(st.integers(0, (1 << cols) - 1),
                         max_size=min(rows, cols)))
    bits = []
    for _ in range(rows):
        if bits and draw(st.booleans()):
            bits.append(draw(st.sampled_from(bits)))
        else:
            bits.append(xor_rows(gens, draw(st.integers(0, (1 << len(gens)) - 1))))
    return BitMatrix(bits, cols)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(m=span_matrices(), data=st.data())
def test_span_tracker_matches_oracles(m, data):
    assert rank(m) == oracle_rank(m)
    assert null_space_basis(m) == oracle_null_space_basis(m)
    pivots = oracle_echelon(list(m))[1]
    # each basis vector's lowest bit is a free column: a non-pivot
    assert [v & -v for v in null_space_basis(m)] == [
        1 << j for j in range(m.cols) if j not in pivots]
    assert list(independent_rows(m)) == inline_independent_rows(list(m))
    if m.rows == m.cols:
        try:
            want = oracle_invert(m)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                invert(m)
        else:
            assert invert(m) == want
    # witnesses over dependent rows: in-span targets, and arbitrary ones
    mask = data.draw(st.integers(0, (1 << m.rows) - 1))
    for y in (xor_rows(list(m), mask),
              data.draw(st.integers(0, (1 << m.cols) - 1))):
        assert solve_left(m, y) == oracle_solve_left(m, y)
