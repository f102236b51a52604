"""Rational canonical form: reconstruction, canonicity, known shapes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaedkit.frobenius import frobenius_normal_form
from gaedkit.gf2 import (BitMatrix, block_diagonal, char_poly,
                         companion_matrix, invert, rank)
from gaedkit.gf2poly import ONE, Gf2Poly, factor, is_irreducible


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
    assert sum(fb.block_sizes) == t.rows
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
    assert sorted(fb.block_sizes) == [1, 4]
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
        frobenius_normal_form(BitMatrix.zeros(2, 3))


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
