"""Rational canonical form: reconstruction, canonicity, known shapes."""

from collections import Counter
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaedkit import frobenius, gf2poly
from gaedkit.frobenius import (FrobeniusForm, _byte_tables, _conductor,
                               _times, char_poly, companion_matrix,
                               frobenius_normal_form, invariant_factors)
from gaedkit.gf2 import (BitMatrix, Reducer, block_diagonal, invert, rank,
                         solve_left, xor_rows)
from gaedkit.gf2poly import (ONE, Gf2Poly, coprime_split, factor,
                             is_irreducible, poly_lcm)


def random_matrix(rng, n):
    return BitMatrix.from_numpy(rng.integers(0, 2, size=(n, n), dtype=np.uint8))


def check_form(t):
    fb = frobenius_normal_form(t)
    s = fb.transform
    assert s @ t @ invert(s) == fb.form
    prod = ONE
    for f in fb.blocks:
        prod = prod * f
        parts = factor(f)
        assert len(parts) == 1          # every block is a prime power
    assert prod == char_poly(t)
    assert sum(f.degree for f in fb.blocks) == t.rows
    assert fb.form == block_diagonal([companion_matrix(f) for f in fb.blocks])
    return fb


def test_reconstruction_random():
    rng = np.random.default_rng(30)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        check_form(random_matrix(rng, n))


def test_identity_splits_into_unit_blocks():
    fb = check_form(BitMatrix.identity(6))
    assert fb.blocks == (Gf2Poly(0b11),) * 6
    assert fb.form == BitMatrix.identity(6)


def test_companion_of_irreducible_is_single_block():
    f = Gf2Poly(0b10011)  # x^4 + x + 1, irreducible
    fb = check_form(companion_matrix(f))
    assert fb.blocks == (f,)
    assert fb.form == companion_matrix(f)


def test_cycle_splits_by_factorization():
    # 5-cycle: char poly x^5 + 1 = (x + 1)(x^4 + x^3 + x^2 + x + 1)
    perm = [[1 if j == (i + 1) % 5 else 0 for j in range(5)] for i in range(5)]
    fb = check_form(BitMatrix.from_rows(perm))
    assert sorted(f.degree for f in fb.blocks) == [1, 4]
    assert set(fb.blocks) == {Gf2Poly(0b11), Gf2Poly(0b11111)}


def test_shift_matrix_is_one_nilpotent_block():
    n = 4
    shift = [[1 if j == i - 1 else 0 for j in range(n)] for i in range(n)]
    fb = check_form(BitMatrix.from_rows(shift))
    assert fb.blocks == (Gf2Poly(1 << n),)


def test_block_multiset_is_similarity_invariant():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(1, 11))
        a = random_matrix(rng, n)
        s = BitMatrix.random_invertible(n, rng)
        fa = frobenius_normal_form(a)
        fb = frobenius_normal_form(s @ a @ invert(s))
        assert sorted((f.degree, f.bits) for f in fa.blocks) == \
            sorted((f.degree, f.bits) for f in fb.blocks)


def test_deterministic():
    rng = np.random.default_rng(32)
    t = random_matrix(rng, 10)
    first = frobenius_normal_form(t)
    second = frobenius_normal_form(t)
    assert first.blocks == second.blocks
    assert first.transform == second.transform


def test_rejects_non_square():
    with pytest.raises(ValueError):
        frobenius_normal_form(BitMatrix([0, 0], 3))


# -- properties -----------------------------------------------------------

@st.composite
def sparse_matrices(draw):
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(st.sets(st.integers(0, n - 1), max_size=2),
                         min_size=n, max_size=n))
    return BitMatrix((sum(1 << j for j in r) for r in rows), n)


@st.composite
def derogatory_matrices(draw):
    """Identity, repeated companion blocks, or I plus a nilpotent shift in
    blocks; optionally conjugated so the structure is hidden."""
    kind = draw(st.sampled_from(["identity", "companions", "unipotent"]))
    if kind == "identity":
        t = BitMatrix.identity(draw(st.integers(1, 10)))
    elif kind == "companions":
        d = draw(st.integers(1, 4))
        f = Gf2Poly((1 << d) | draw(st.integers(0, (1 << d) - 1)))
        t = block_diagonal([companion_matrix(f)] * draw(st.integers(2, 3)))
    else:
        sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
        t = block_diagonal([BitMatrix(((1 << i) | ((1 << i) >> 1)
                                       for i in range(k)), k)
                            for k in sizes])
    s = draw(st.lists(st.integers(0, (1 << t.rows) - 1),
                      min_size=t.rows, max_size=t.rows))
    s = BitMatrix(s, t.rows)
    return s @ t @ invert(s) if rank(s) == t.rows else t


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(t=st.one_of(sparse_matrices(), derogatory_matrices()))
def test_frobenius_form_property(t):
    fb = frobenius_normal_form(t)
    s_inv = invert(fb.transform)
    assert t @ s_inv == s_inv @ fb.form
    prod = ONE
    for f in fb.blocks:
        prod = prod * f
        [(p, e)] = factor(f)
        assert is_irreducible(p)
        pe = ONE
        for _ in range(e):
            pe = pe * p
        assert pe == f
    assert prod == char_poly(t)


# -- the former deflation as the oracle -----------------------------------

def oracle_apply_poly(tt_rows, f, v):
    """f(t) @ v, power by power; tt_rows holds the columns of t."""
    acc = 0
    cur = v
    bits = f.bits
    while bits:
        if bits & 1:
            acc ^= cur
        bits >>= 1
        if bits:
            cur = xor_rows(tt_rows, cur)
    return acc


def oracle_conductor(tt_rows, span, u):
    """Minimal monic f with f(t) @ u inside the span, from the witness of
    the first dependence of u's cyclic chain modulo the span."""
    local = span.copy()
    j = 0
    while local.insert(u, 1 << j):
        u = xor_rows(tt_rows, u)
        j += 1
    return Gf2Poly((1 << j) ^ local.reduce(u)[1])


def quotient_dim_scan_oracle(t):
    """The deflation before invariant factors were known: each round scans
    unit vectors until fw spans the whole quotient (fw.degree ==
    quotient_dim) or the scan ends, and each invariant-factor block is
    factored on its own. Returns the form and each round's annihilator."""
    n = t.rows
    tt_rows = tuple(t.transpose())
    span = Reducer()
    chain_vectors = []
    raw_blocks = []
    while len(span) < n:
        quotient_dim = n - len(span)
        w, fw = 0, ONE
        for i in range(n):
            e = 1 << i
            if span.reduce(e)[0] == 0:
                continue
            fi = oracle_conductor(tt_rows, span, e)
            if poly_lcm(fw, fi) == fw:
                continue
            if fw.is_one():
                w, fw = e, fi
            else:
                a, b = coprime_split(fw, fi)
                w = (oracle_apply_poly(tt_rows, fw // a, w)
                     ^ oracle_apply_poly(tt_rows, fi // b, e))
                fw = a * b
            if fw.degree == quotient_dim:
                break
        y = oracle_apply_poly(tt_rows, fw, w)
        if chain_vectors:
            images = BitMatrix([oracle_apply_poly(tt_rows, fw, v)
                                for v in chain_vectors], n)
            combo = solve_left(images, y)
        else:
            combo = 0
        u = w ^ xor_rows(chain_vectors, combo)
        cur = u
        for _ in range(fw.degree):
            assert span.insert(cur)
            chain_vectors.append(cur)
            cur = xor_rows(tt_rows, cur)
        raw_blocks.append((u, fw))

    blocks, vectors = [], []
    for u, f in raw_blocks:
        parts = gf2poly.factor(f)
        for p, e in parts:
            pe = ONE
            for _ in range(e):
                pe = pe * p
            cur = (oracle_apply_poly(tt_rows, f // pe, u) if len(parts) > 1
                   else u)
            for _ in range(pe.degree):
                vectors.append(cur)
                cur = xor_rows(tt_rows, cur)
            blocks.append(pe)
    basis = BitMatrix(vectors, n).transpose()
    form = (block_diagonal([companion_matrix(f) for f in blocks])
            if blocks else BitMatrix.identity(0))
    return (FrobeniusForm(tuple(blocks), form, invert(basis)),
            [f for _, f in raw_blocks])


def assert_matches_oracle(t):
    fb = frobenius_normal_form(t)
    want, _ = quotient_dim_scan_oracle(t)
    assert fb.blocks == want.blocks
    assert fb.form == want.form
    assert fb.transform == want.transform


X1, X2 = Gf2Poly(0b11), Gf2Poly(0b111)


# Each input took one special case that the deflation no longer has, and
# `parts` pins the round structure that took it. The oracle keeps them all,
# so the general step must give its form bit for bit.
@pytest.mark.parametrize("t, parts", [
    # no blocks: block_diagonal([]) is the 0x0 form
    (BitMatrix([], 0), []),
    # cyclic, one prime power: the round starts from fw = ONE with no chain
    # vectors, and its one-prime factor is its own generator (f // p^e = ONE)
    (companion_matrix(Gf2Poly(0b10011) ** 2), [1]),
    # one invariant factor with two primes, split by f // p^e
    (companion_matrix(X1 ** 2 * X2), [2]),
    # a prime of multiplicity 3 in two rounds: the second starts from
    # fw = ONE beside chain vectors
    (block_diagonal([companion_matrix(X1 ** 2), companion_matrix(X1)]), [1, 1]),
], ids=["empty", "cyclic", "two-primes", "repeated-prime"])
def test_general_deflation_step_on_its_former_special_cases(t, parts):
    assert [len(r) for r in invariant_factors(t)] == parts
    s = BitMatrix.random_invertible(t.rows, np.random.default_rng(38))
    for m in (t, s @ t @ invert(s)):
        check_form(m)
        assert_matches_oracle(m)


def unipotent(sizes):
    """I plus a nilpotent shift, one Jordan-like block per size."""
    return block_diagonal([BitMatrix(((1 << i) | ((1 << i) >> 1)
                                      for i in range(k)), k) for k in sizes])


def test_matches_quotient_dim_oracle_on_random_and_sparse():
    rng = np.random.default_rng(33)
    for _ in range(80):
        n = int(rng.integers(1, 16))
        assert_matches_oracle(random_matrix(rng, n))
        sparse = rng.random((n, n)) < 1.5 / n
        assert_matches_oracle(BitMatrix.from_numpy(sparse.astype(np.uint8)))


def test_matches_quotient_dim_oracle_on_derogatory_matrices():
    rng = np.random.default_rng(34)
    cases = [BitMatrix.identity(n) for n in (1, 2, 5, 9)]
    for f in (Gf2Poly(0b11), Gf2Poly(0b111), Gf2Poly(0b1011), Gf2Poly(0b10101)):
        cases += [block_diagonal([companion_matrix(f)] * m) for m in (2, 3)]
    cases += [unipotent(sizes) for sizes in ((1, 1), (2, 2), (3, 1, 1),
                                             (4, 2, 2, 1), (5, 3))]
    for t in cases:
        assert_matches_oracle(t)
        s = BitMatrix.random_invertible(t.rows, rng)
        assert_matches_oracle(s @ t @ invert(s))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(t=st.one_of(sparse_matrices(), derogatory_matrices()))
def test_matches_quotient_dim_oracle_property(t):
    assert_matches_oracle(t)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(t=st.one_of(sparse_matrices(), derogatory_matrices()))
def test_invariant_factors_property(t):
    rounds = invariant_factors(t)
    polys = [prod((p ** e for p, e in parts), start=ONE) for parts in rounds]
    for parts in rounds:
        primes = [p for p, _ in parts]
        assert primes == sorted(primes, key=lambda p: (p.degree, p.bits))
        assert all(is_irreducible(p) and e >= 1 for p, e in parts)
    for big, small in zip(polys, polys[1:]):
        assert (big % small).is_zero()
    assert prod(polys, start=ONE) == char_poly(t)
    # one deflation round per invariant factor, whose annihilator it is
    assert polys == quotient_dim_scan_oracle(t)[1]


def test_factor_runs_once_per_matrix(monkeypatch):
    rng = np.random.default_rng(35)
    blocks = ([companion_matrix(Gf2Poly(0b111) ** 2)] * 4        # 16
              + [companion_matrix(Gf2Poly(0b10011))] * 3         # 12
              + [unipotent((8, 8, 4, 4, 2, 1, 1))]               # 28
              + [companion_matrix(Gf2Poly(0b11) ** 3 * Gf2Poly(0b111))]  # 5
              + [companion_matrix(Gf2Poly(0b1011))])             # 3
    t = block_diagonal(blocks)
    s = BitMatrix.random_invertible(64, rng)
    t = s @ t @ invert(s)
    assert t.rows == 64
    calls = []

    def counting_factor(f):
        calls.append(f)
        return factor(f)

    monkeypatch.setattr(frobenius, "factor", counting_factor)
    fb = frobenius_normal_form(t)
    assert calls == [char_poly(t)]
    want, annihilators = quotient_dim_scan_oracle(t)
    assert len(annihilators) > 1
    assert fb.blocks == want.blocks and fb.transform == want.transform


def test_identity_rounds_stop_after_one_scan(monkeypatch):
    n = 12
    span_sizes = []

    def counting_conductor(tables, span, u):
        span_sizes.append(len(span))
        return _conductor(tables, span, u)

    monkeypatch.setattr(frobenius, "_conductor", counting_conductor)
    frobenius_normal_form(BitMatrix.identity(n))
    # per round: the one scan call that reaches x + 1, then the self-check
    assert Counter(span_sizes) == {r: 2 for r in range(n)}


def test_conductor_leaves_its_span_unchanged():
    rng = np.random.default_rng(37)
    for n in (1, 9, 40, 70):
        t = random_matrix(rng, n)
        tables, tt_rows = _byte_tables(t), list(t.transpose())
        span = Reducer()
        for v in BitMatrix.random(n // 2, n, rng):
            span.insert(v)
        before = dict(span.pivots)
        for i in range(n):
            assert (_conductor(tables, span, 1 << i)
                    == oracle_conductor(tt_rows, span, 1 << i))
            assert len(span) == len(before) and span.pivots == before


# -- byte tables and the ordering gate -------------------------------------

@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 69])
def test_byte_table_product_matches_xor_rows(n):
    rng = np.random.default_rng(36 + n)
    for t in (random_matrix(rng, n), BitMatrix.identity(n),
              BitMatrix.from_numpy((rng.random((n, n)) < 2 / n)
                                   .astype(np.uint8))):
        tables = _byte_tables(t)
        cols = tuple(t.transpose())
        vs = [0, (1 << n) - 1] + list(BitMatrix.random(20, n, rng))
        for v in vs:
            assert _times(tables, v) == xor_rows(cols, v)


@st.composite
def dense_matrices(draw):
    n = draw(st.integers(1, 16))
    return BitMatrix(draw(st.lists(st.integers(0, (1 << n) - 1),
                                   min_size=n, max_size=n)), n)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(t=st.one_of(dense_matrices(), sparse_matrices(),
                   derogatory_matrices()))
def test_invariant_factor_sizes_are_the_block_sizes(t):
    # construct_code_with_automorphism orders these sizes before deflating
    sizes = [p.degree * e for parts in invariant_factors(t) for p, e in parts]
    assert sizes == [f.degree for f in frobenius_normal_form(t).blocks]
