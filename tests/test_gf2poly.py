"""Polynomial arithmetic over GF(2), factorization, irreducibility."""

from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaedkit.automorphisms import sample_sparse_invertible
from gaedkit.frobenius import char_poly
from gaedkit.gf2poly import (ONE, X, ZERO, Gf2Poly, coprime_split, factor,
                             is_irreducible, poly_gcd, poly_lcm)


def poly(*exponents):
    """Build from exponents: poly(3, 1, 0) = x^3 + x + 1."""
    bits = 0
    for e in exponents:
        bits ^= 1 << e
    return Gf2Poly(bits)


def naive_mul(a: Gf2Poly, b: Gf2Poly) -> Gf2Poly:
    bits = 0
    for i in range(a.bits.bit_length()):
        if (a.bits >> i) & 1:
            bits ^= b.bits << i
    return Gf2Poly(bits)


def test_basic_identities():
    assert ZERO.degree == -1 and ONE.degree == 0 and X.degree == 1
    f = poly(4, 1, 0)
    assert f + f == ZERO
    assert f - f == ZERO
    assert f * ONE == f
    assert f * ZERO == ZERO
    assert str(poly(2, 0)) == "x^2 + 1"
    assert str(ZERO) == "0"
    with pytest.raises(ValueError):
        Gf2Poly(-1)
    assert f ** 0 == ONE and f ** 2 == f * f
    with pytest.raises(ValueError, match="^e must be non-negative, got -1$"):
        f ** -1


def test_mul_matches_naive():
    rng = np.random.default_rng(1)
    for _ in range(300):
        a = Gf2Poly(int(rng.integers(0, 1 << 16)))
        b = Gf2Poly(int(rng.integers(0, 1 << 16)))
        assert a * b == naive_mul(a, b)


def test_divmod_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(300):
        a = Gf2Poly(int(rng.integers(0, 1 << 20)))
        b = Gf2Poly(int(rng.integers(1, 1 << 10)))
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
    with pytest.raises(ZeroDivisionError):
        divmod(poly(2), ZERO)
    with pytest.raises(ValueError):
        poly(2, 0).exact_div(X)


def test_square_and_sqrt():
    rng = np.random.default_rng(3)
    for _ in range(200):
        f = Gf2Poly(int(rng.integers(0, 1 << 24)))
        sq = f.square()
        assert sq == f * f
        assert sq.sqrt() == f
    with pytest.raises(ValueError):
        poly(3).sqrt()


def test_derivative_char2():
    # only odd-degree terms survive in characteristic 2
    assert poly(5, 4, 3, 1, 0).derivative() == poly(4, 2, 0)
    assert poly(6, 2).derivative() == ZERO
    rng = np.random.default_rng(4)
    for _ in range(100):
        f = Gf2Poly(int(rng.integers(0, 1 << 30)))
        g = Gf2Poly(int(rng.integers(0, 1 << 30)))
        # product rule
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def test_gcd_lcm_properties():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = Gf2Poly(int(rng.integers(1, 1 << 12)))
        b = Gf2Poly(int(rng.integers(1, 1 << 12)))
        g = poly_gcd(a, b)
        m = poly_lcm(a, b)
        assert a % g == ZERO and b % g == ZERO
        assert m % a == ZERO and m % b == ZERO
        assert g * m == a * b
    assert poly_lcm(ZERO, poly(3)) == ZERO


def test_coprime_split():
    rng = np.random.default_rng(6)
    for _ in range(300):
        a = Gf2Poly(int(rng.integers(1, 1 << 10)))
        b = Gf2Poly(int(rng.integers(1, 1 << 10)))
        u, v = coprime_split(a, b)
        assert poly_gcd(u, v) == ONE
        assert a % u == ZERO and b % v == ZERO
        assert u * v == poly_lcm(a, b)


def test_coprime_split_equal_inputs():
    f = poly(3, 1, 0) * poly(3, 1, 0)
    u, v = coprime_split(f, f)
    assert u * v == poly_lcm(f, f) == f


def test_known_irreducibles():
    assert is_irreducible(poly(1, 0))          # x + 1
    assert is_irreducible(poly(2, 1, 0))       # x^2 + x + 1
    assert is_irreducible(poly(3, 1, 0))
    assert is_irreducible(poly(4, 1, 0))
    assert is_irreducible(poly(8, 4, 3, 2, 0))
    assert not is_irreducible(poly(2, 0))      # (x + 1)^2
    assert not is_irreducible(poly(4, 0))
    assert not is_irreducible(ONE)
    assert not is_irreducible(ZERO)


def trial_division_irreducible(f: Gf2Poly) -> bool:
    """Irreducibility by dividing f by every polynomial of lower degree."""
    if f.degree < 1:
        return False
    for d in range(1, f.degree):
        for bits in range(1 << d, 1 << (d + 1)):
            if (f % Gf2Poly(bits)).bits == 0:
                return False
    return True


def test_irreducible_matches_trial_division():
    for bits in range(2, 1 << 10):
        f = Gf2Poly(bits)
        assert is_irreducible(f) == trial_division_irreducible(f), str(f)


def check_factorization(f, got):
    """The unique factorization: irreducible, distinct, sorted, product f."""
    keys = [(p.degree, p.bits) for p, _ in got]
    assert keys == sorted(set(keys))
    prod = ONE
    for p, e in got:
        assert e >= 1
        assert is_irreducible(p), str(p)
        prod = prod * p ** e
    assert prod == f


def test_factor_roundtrip_and_determinism():
    rng = np.random.default_rng(8)
    for _ in range(150):
        f = Gf2Poly(int(rng.integers(2, 1 << 20)))
        parts = factor(f)
        assert parts == factor(f)
        check_factorization(f, parts)


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(parts=st.lists(st.tuples(st.integers(2, (1 << 11) - 1),
                                st.integers(1, 4)), min_size=1, max_size=6))
def test_factor_property(parts):
    # products of small polynomials with repeats, so every irreducible
    # factor has degree below 11 and trial division stays cheap
    f = ONE
    for bits, e in parts:
        for _ in range(e):
            f = f * Gf2Poly(bits)
    got = factor(f)
    assert got == factor(f)
    assert len({p for p, _ in got}) == len(got)
    prod = ONE
    for p, e in got:
        assert e >= 1
        assert trial_division_irreducible(p), str(p)
        for _ in range(e):
            prod = prod * p
    assert prod == f


def test_factor_known_cases():
    assert factor(poly(2, 0)) == [(poly(1, 0), 2)]
    # x^3 + 1 = (x + 1)(x^2 + x + 1)
    assert factor(poly(3, 0)) == [(poly(1, 0), 1), (poly(2, 1, 0), 1)]
    assert factor(X) == [(X, 1)]
    assert factor(ONE) == []
    with pytest.raises(ValueError):
        factor(ZERO)


def first_irreducibles(degree, count):
    """Up to `count` of the smallest irreducibles of the given degree."""
    found = (Gf2Poly(b) for b in range(1 << degree, 2 << degree))
    return list(islice(filter(is_irreducible, found), count))


def test_factor_large_products_of_known_irreducibles():
    # degree 64 and up, exponents up to 8: well past the degree-20 inputs
    # above
    rng = np.random.default_rng(9)
    pool = [p for d in (1, 2, 3, 5, 7, 8, 11, 13, 16, 23, 31)
            for p in first_irreducibles(d, 3)]
    checked = 0
    while checked < 20:
        picks = rng.choice(len(pool), size=int(rng.integers(2, 7)),
                           replace=False)
        want = {pool[i]: int(rng.integers(1, 9)) for i in picks}
        f = ONE
        for p, e in want.items():
            f = f * p ** e
        if f.degree < 64:
            continue
        got = factor(f)
        check_factorization(f, got)
        assert dict(got) == want
        checked += 1


def test_factor_perfect_powers():
    cases = [(X, 64), (poly(1, 0), 64), (poly(2, 1, 0), 8),
             (poly(8, 4, 3, 2, 0), 8), (poly(31, 3, 0), 4)]
    for p, e in cases:
        assert factor(p ** e) == [(p, e)], str(p)
    f = poly(1, 0) ** 64 * poly(2, 1, 0) ** 32 * X ** 3
    assert factor(f) == [(X, 3), (poly(1, 0), 64), (poly(2, 1, 0), 32)]


def test_factor_char_polys_of_sparse_matrices():
    # the polynomials that code construction factors, at n = 64
    for seed in range(12):
        f = char_poly(sample_sparse_invertible(64, 80, seed))
        check_factorization(f, factor(f))
