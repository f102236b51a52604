"""Polynomial arithmetic and factorization over GF(2).

A polynomial is stored as a Python int: bit i is the coefficient of x^i.
Every nonzero polynomial over GF(2) is monic, so no normalization step is
ever needed. Addition is XOR, multiplication is carry-less.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .gf2 import Reducer, _check_count


def _even_bit_mask(nbits: int) -> int:
    """Mask with bits 0, 2, 4, ... set, covering at least nbits bits."""
    words = nbits // 2 + 1
    return ((1 << (2 * words)) - 1) // 3


@dataclass(frozen=True, order=True)
class Gf2Poly:
    """Binary polynomial encoded as an int (bit i = coefficient of x^i)."""

    bits: int

    def __post_init__(self) -> None:
        _check_count("bits", self.bits, 0)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return self.bits.bit_length() - 1

    def is_zero(self) -> bool:
        return self.bits == 0

    def is_one(self) -> bool:
        return self.bits == 1

    def __add__(self, other: "Gf2Poly") -> "Gf2Poly":
        return Gf2Poly(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other: "Gf2Poly") -> "Gf2Poly":
        a, b, acc = self.bits, other.bits, 0
        if a.bit_count() > b.bit_count():
            a, b = b, a  # loop over the sparser factor's terms
        while a:
            low = a & -a
            acc ^= b << low.bit_length() - 1
            a ^= low
        return Gf2Poly(acc)

    def __pow__(self, e: int) -> "Gf2Poly":
        _check_count("e", e, 0)
        out = ONE
        for _ in range(e):
            out = out * self
        return out

    def __divmod__(self, other: "Gf2Poly") -> tuple["Gf2Poly", "Gf2Poly"]:
        if other.bits == 0:
            raise ZeroDivisionError("polynomial division by zero")
        r, d, q = self.bits, other.bits, 0
        dd = d.bit_length()
        while r.bit_length() >= dd:
            shift = r.bit_length() - dd
            q |= 1 << shift
            r ^= d << shift
        return Gf2Poly(q), Gf2Poly(r)

    def __floordiv__(self, other: "Gf2Poly") -> "Gf2Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Gf2Poly") -> "Gf2Poly":
        return divmod(self, other)[1]

    def exact_div(self, other: "Gf2Poly") -> "Gf2Poly":
        q, r = divmod(self, other)
        if r.bits:
            raise ValueError(f"{self!r} is not divisible by {other!r}")
        return q

    def square(self) -> "Gf2Poly":
        """Frobenius square: spreads the coefficient bits apart."""
        bits, out, i = self.bits, 0, 0
        while bits:
            if bits & 1:
                out |= 1 << (2 * i)
            bits >>= 1
            i += 1
        return Gf2Poly(out)

    def sqrt(self) -> "Gf2Poly":
        """Inverse of square(); valid only when all exponents are even."""
        bits, out, i = self.bits, 0, 0
        while bits:
            if bits & 1:
                if i & 1:
                    raise ValueError("polynomial is not a perfect square")
                out |= 1 << (i // 2)
            bits >>= 1
            i += 1
        return Gf2Poly(out)

    def derivative(self) -> "Gf2Poly":
        """Formal derivative; only odd-degree terms survive in GF(2)."""
        return Gf2Poly((self.bits >> 1) & _even_bit_mask(self.bits.bit_length()))

    def __str__(self) -> str:
        if self.bits == 0:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            if (self.bits >> i) & 1:
                terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
        return " + ".join(terms)


ZERO = Gf2Poly(0)
ONE = Gf2Poly(1)
X = Gf2Poly(2)


def poly_gcd(a: Gf2Poly, b: Gf2Poly) -> Gf2Poly:
    while b.bits:
        a, b = b, a % b
    return a


def poly_lcm(a: Gf2Poly, b: Gf2Poly) -> Gf2Poly:
    if a.bits == 0 or b.bits == 0:
        return ZERO
    return (a // poly_gcd(a, b)) * b


def coprime_split(a: Gf2Poly, b: Gf2Poly) -> tuple[Gf2Poly, Gf2Poly]:
    """Split lcm(a, b) into coprime parts drawn from a and b.

    Returns (u, v) with u | a, v | b, gcd(u, v) = 1 and u * v = lcm(a, b).
    Each irreducible factor of the lcm is taken in full from whichever
    argument carries the higher multiplicity (ties go to v). Needs no
    factorization, only gcds.
    """
    d = poly_gcd(a, b)
    u = a // d
    while True:
        g = poly_gcd(u, d)
        if g.is_one():
            break
        u = u * g
        d = d // g
    v = poly_lcm(a, b).exact_div(u)
    return u, v


def _pow2k_mod(a: Gf2Poly, k: int, mod: Gf2Poly) -> Gf2Poly:
    """a^(2^k) mod `mod` by repeated Frobenius squaring."""
    r = a % mod
    for _ in range(k):
        r = r.square() % mod
    return r


def factor(f: Gf2Poly) -> list[tuple[Gf2Poly, int]]:
    """Full factorization of f into irreducibles over GF(2), by Berlekamp.

    Returns [(p, e), ...] sorted by (degree, bits); the product of p^e
    recovers f. The kernel of v -> v^2 + v mod f holds exactly the v that
    are 0 or 1 modulo each prime power p^e of f, so its dimension is the
    number of distinct primes, and gcds with a basis of it split f into
    those prime powers. No step draws a random number.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    n = f.degree
    if n < 1:
        return []
    # row i is x^(2i) + x^i mod f, the image of x^i; a row in the span of
    # the rows before it gives the kernel vector witness + x^i
    span = Reducer()
    kernel = []
    sq = 1  # x^(2i) mod f
    for i in range(n):
        v, combo = span.reduce(sq ^ (1 << i))
        if v:
            span.insert(v, combo ^ (1 << i))
        elif i:  # the constant 1 splits nothing
            kernel.append(Gf2Poly(combo ^ (1 << i)))
        sq <<= 2
        if sq >> (n + 1):
            sq ^= f.bits << 1
        if sq >> n:
            sq ^= f.bits
    parts = [f]
    for v in kernel:
        if len(parts) > len(kernel):  # one part per prime: all split
            break
        split = []
        for g in parts:
            d = poly_gcd(g, v)
            split += [d, g // d] if 0 < d.degree < g.degree else [g]
        parts = split
    out = []
    for q in parts:
        p = q
        while p.derivative().is_zero():
            p = p.sqrt()
        p = p // poly_gcd(p, p.derivative())
        out.append((p, q.degree // p.degree))
    out.sort(key=lambda t: (t[0].degree, t[0].bits))
    check = ONE
    for p, e in out:
        check = check * p ** e
    if check != f:
        raise AssertionError("factorization self-check failed")
    return out


def is_irreducible(f: Gf2Poly) -> bool:
    """Rabin's irreducibility test over GF(2)."""
    d = f.degree
    if d < 1:
        return False
    if _pow2k_mod(X, d, f) != X % f:
        return False
    for q in _prime_divisors(d):
        if poly_gcd(_pow2k_mod(X, d // q, f) + X, f).degree != 0:
            return False
    return True


def _prime_divisors(n: int) -> Iterator[int]:
    p = 2
    while p * p <= n:
        if n % p == 0:
            yield p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        yield n
