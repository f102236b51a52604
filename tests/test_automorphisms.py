"""Code-preserving matrices: verification, conjugation, construction."""

import itertools

import numpy as np
import pytest

from gaedkit.automorphisms import (Ccm, ConstructionError,
                                   GeneralizedAutomorphism, ZBlockMatrix,
                                   compute_ccm, conjugate_z,
                                   construct_code_with_automorphism,
                                   membership_in_z, order_blocks,
                                   random_z_block, sample_sparse_invertible,
                                   verify_automorphism)
from gaedkit.codes import LinearCode
from gaedkit.gf2 import BitMatrix, SingularMatrixError, invert, rank

HAMMING_74_H = BitMatrix.from_rows([
    [1, 0, 1, 0, 1, 0, 1],
    [0, 1, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
])


def random_code(rng, n, r):
    while True:
        h = BitMatrix.from_numpy(rng.integers(0, 2, size=(r, n), dtype=np.uint8))
        if rank(h) == r:
            return LinearCode.from_pcm(h)


def random_square(rng, n):
    return BitMatrix.from_numpy(rng.integers(0, 2, size=(n, n), dtype=np.uint8))


def test_wrapper_properties():
    rng = np.random.default_rng(60)
    m = BitMatrix.random_invertible(6, rng)
    a = GeneralizedAutomorphism.from_matrix(m)
    assert a.n == 6
    assert a.omega == m.weight
    assert a.delta == m.weight - 6
    assert a.power(0) == BitMatrix.identity(6)
    assert a.power(3) == m @ m @ m
    assert a.power(-2) == a.inverse @ a.inverse
    assert a.power(2) @ a.power(-2) == BitMatrix.identity(6)
    eye = GeneralizedAutomorphism.identity(4)
    assert eye.delta == 0
    perm = BitMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert GeneralizedAutomorphism.from_matrix(perm).delta == 0
    with pytest.raises(ValueError, match="inverse does not match"):
        GeneralizedAutomorphism(m, BitMatrix.identity(6))
    with pytest.raises(ValueError, match="square"):
        GeneralizedAutomorphism(BitMatrix.zeros(2, 3), BitMatrix.zeros(3, 2))


def test_verify_matches_membership_random():
    rng = np.random.default_rng(61)
    for _ in range(300):
        n = int(rng.integers(4, 13))
        c = random_code(rng, n, int(rng.integers(1, n)))
        ccm = compute_ccm(c)
        t = random_square(rng, n)
        if rank(t) < n:
            assert not verify_automorphism(c, t)
            with pytest.raises(SingularMatrixError):
                membership_in_z(ccm, t)
        else:
            assert membership_in_z(ccm, t) == verify_automorphism(c, t)
    with pytest.raises(ValueError, match="shape"):
        verify_automorphism(random_code(rng, 5, 2), BitMatrix.identity(4))


def test_verify_matches_membership_exhaustive():
    c = LinearCode.from_pcm(BitMatrix.from_rows([[1, 1, 0], [0, 1, 1]]))
    ccm = compute_ccm(c)
    hits = 0
    for bits in itertools.product([0, 1], repeat=9):
        t = BitMatrix.from_rows([bits[0:3], bits[3:6], bits[6:9]])
        ok = verify_automorphism(c, t)
        if rank(t) == 3:
            assert membership_in_z(ccm, t) == ok
            hits += ok
        else:
            assert not ok
    # repetition-code stabilizer inside GL(3, 2): |Z| = |GL(2)| * 2^2 = 24
    assert hits == 24


def test_ccm_identities_and_alternates():
    rng = np.random.default_rng(62)
    for _ in range(40):
        n = int(rng.integers(4, 12))
        r = int(rng.integers(1, n))
        c = random_code(rng, n, r)
        ccm = compute_ccm(c)
        prod = c.h @ ccm.basis
        assert list(prod) == [1 << i for i in range(r)]
        assert ccm.basis @ ccm.basis_inv == BitMatrix.identity(n)
        assert list(ccm.basis_inv)[:r] == list(c.h)
        # the basis is not unique: right-multiplying by a zero-block matrix
        # with identity upper-left keeps both defining identities
        z = ZBlockMatrix.from_blocks(BitMatrix.identity(r),
                                     BitMatrix.random(n - r, r, rng),
                                     BitMatrix.random_invertible(n - r, rng))
        alt_basis = ccm.basis @ z.matrix
        alt = Ccm(code=c, basis=alt_basis, basis_inv=invert(alt_basis))
        for _ in range(5):
            t = BitMatrix.random_invertible(n, rng)
            assert membership_in_z(ccm, t) == membership_in_z(alt, t)


def test_ccm_rejects_bad_basis():
    c = LinearCode.from_pcm(HAMMING_74_H)
    eye = BitMatrix.identity(7)
    with pytest.raises(ValueError, match="normalize"):
        Ccm(code=c, basis=eye, basis_inv=eye)
    good = compute_ccm(c)
    with pytest.raises(ValueError, match="not the inverse"):
        Ccm(code=c, basis=good.basis, basis_inv=eye)


def test_conjugated_block_group_members_preserve_the_code():
    rng = np.random.default_rng(63)
    for _ in range(60):
        n = int(rng.integers(4, 12))
        k = int(rng.integers(1, n))
        c = random_code(rng, n, n - k)
        ccm = compute_ccm(c)
        za = random_z_block(n, k, rng)
        zb = random_z_block(n, k, rng)
        ta = conjugate_z(ccm, za)
        tb = conjugate_z(ccm, zb)
        assert verify_automorphism(c, ta.matrix)
        assert membership_in_z(ccm, ta.matrix)
        # group closure survives the conjugation
        assert verify_automorphism(c, ta.matrix @ tb.matrix)
        assert verify_automorphism(c, ta.inverse)
    with pytest.raises(ValueError, match="does not match"):
        conjugate_z(compute_ccm(random_code(rng, 6, 2)), random_z_block(5, 2, rng))


def test_z_block_matrix_validation():
    rng = np.random.default_rng(64)
    z = random_z_block(7, 4, rng)
    rebuilt = ZBlockMatrix.from_blocks(
        z.matrix.take_rows(range(3)).take_cols(range(3)),
        z.matrix.take_rows(range(3, 7)).take_cols(range(3)),
        z.matrix.take_rows(range(3, 7)).take_cols(range(3, 7)))
    assert rebuilt.matrix == z.matrix
    with pytest.raises(ValueError, match="upper-right"):
        ZBlockMatrix(BitMatrix.from_rows([[1, 1], [0, 1]]), 1)
    with pytest.raises(SingularMatrixError):
        ZBlockMatrix(BitMatrix.from_rows([[1, 0], [1, 0]]), 1)
    with pytest.raises(ValueError, match="bad block split"):
        ZBlockMatrix(BitMatrix.identity(3), 3)
    with pytest.raises(ValueError, match="inconsistent"):
        ZBlockMatrix.from_blocks(BitMatrix.identity(2), BitMatrix.zeros(2, 2),
                                 BitMatrix.identity(3))


def brute_first_subset(sizes, k):
    best = None
    for r in range(len(sizes) + 1):
        for combo in itertools.combinations(range(len(sizes)), r):
            if sum(sizes[i] for i in combo) == k:
                best = combo if best is None or combo < best else best
    return best


def test_order_blocks_matches_brute_force():
    rng = np.random.default_rng(65)
    for _ in range(300):
        sizes = tuple(int(v) for v in rng.integers(1, 7, size=rng.integers(1, 9)))
        k = int(rng.integers(0, sum(sizes) + 2))
        got = order_blocks(sizes, k)
        want = brute_first_subset(sizes, k)
        if want is None:
            assert got is None
            continue
        assert got is not None
        assert sorted(got) == list(range(len(sizes)))
        assert got[len(sizes) - len(want):] == want


def test_order_blocks_known_cases():
    assert order_blocks((1, 2, 12, 12, 12), 24) == (0, 1, 4, 2, 3)
    assert order_blocks((2, 2), 1) is None
    assert order_blocks((3,), 5) is None
    assert order_blocks((2, 3), 0) == (0, 1)
    assert order_blocks((2, 3), 5) == (0, 1)


def test_sample_sparse_invertible():
    rng = np.random.default_rng(66)
    for _ in range(60):
        n = int(rng.integers(3, 16))
        omega = n + int(rng.integers(0, min(11, n * (n - 1) // 2)))
        m = sample_sparse_invertible(n, omega, rng)
        assert m.weight == omega
        assert rank(m) == n
    perm = sample_sparse_invertible(9, 9, 5)
    assert GeneralizedAutomorphism.from_matrix(perm).delta == 0
    assert sample_sparse_invertible(8, 12, 7) == sample_sparse_invertible(8, 12, 7)
    with pytest.raises(ValueError, match="impossible"):
        sample_sparse_invertible(4, 3, rng)
    with pytest.raises(ValueError, match="impossible"):
        sample_sparse_invertible(4, 17, rng)
    # weight 8 on a 3 x 3 grid always leaves two all-ones rows: never invertible
    with pytest.raises(ValueError, match="budget exhausted"):
        sample_sparse_invertible(3, 8, 0)


def test_construction_results_are_consistent():
    for seed in range(5):
        res = construct_code_with_automorphism(16, 8, 2, seed=seed)
        c, aut = res.code, res.aut
        assert c.k == 8
        assert c.n == 16 - len(res.frozen_positions)
        assert res.pre_reduction_omega == 18
        assert res.attempts >= 1
        assert res.attempts > res.ordering_failures + res.reduction_failures
        assert verify_automorphism(c, aut.matrix)
        assert verify_automorphism(c, aut.inverse)
        assert res.t_squared == aut.matrix @ aut.matrix
        assert verify_automorphism(c, res.t_squared)
        assert membership_in_z(res.ccm, aut.matrix)
        assert res.ccm.code is c


def test_construction_is_deterministic():
    a = construct_code_with_automorphism(20, 10, 4, seed=11)
    b = construct_code_with_automorphism(20, 10, 4, seed=11)
    assert a.code.h == b.code.h
    assert a.aut.matrix == b.aut.matrix
    assert a.attempts == b.attempts
    other = construct_code_with_automorphism(20, 10, 4, seed=12)
    assert other.aut.matrix != a.aut.matrix


def test_construction_budget_exhaustion():
    # this seed needs more than one attempt at (32, 16, delta 10)
    with pytest.raises(ConstructionError) as info:
        construct_code_with_automorphism(32, 16, 10, seed=2, max_resamples=1)
    err = info.value
    assert err.attempts == 1
    assert err.ordering_failures + err.reduction_failures == 1


def test_construction_validation():
    with pytest.raises(ValueError, match="0 < k < n"):
        construct_code_with_automorphism(8, 8, 0, seed=0)
    with pytest.raises(ValueError, match="non-negative"):
        construct_code_with_automorphism(8, 4, -1, seed=0)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="max_resamples"):
            construct_code_with_automorphism(8, 4, 0, seed=0,
                                             max_resamples=bad)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        construct_code_with_automorphism(8, 4, 0, seed=-1)
