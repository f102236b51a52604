"""Rational canonical form of a square matrix over GF(2).

The decomposition writes any square t as t = S^-1 @ F @ S with F a block
diagonal of companion matrices. The invariant factors of t are computed
first: char_poly(t), the product of the Krylov chain polynomials of the unit
vectors, is factored once, and for each prime of multiplicity above 1 the
kernel dimensions of p(t)^j give the exponents of its blocks.
Blocks are then produced by iterated cyclic deflation: round r scans unit
vectors for one whose annihilator modulo the space already spanned reaches
the r-th largest invariant factor, corrects it to an exact annihilator, and
appends its cyclic chain. The same per-prime exponents split each
invariant-factor block into prime-power components, which gives the finest
companion-block decomposition the matrix admits.

Every conductor, of char_poly's chains and of the deflation's scan, comes
from one loop (`_chain`) on a gf2.Reducer span tracker. Column vectors are
int bitsets (bit i = coordinate i), matching BitMatrix. Products t @ v go
through per-byte XOR tables of t's columns, built once per matrix by a
one-entry memo, so each costs one lookup per byte of v.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .gf2 import (BitMatrix, Reducer, block_diagonal, invert, rank,
                  solve_left, xor_rows)
from .gf2poly import ONE, Gf2Poly, coprime_split, factor, poly_lcm


@dataclass(frozen=True)
class FrobeniusForm:
    """Normal form F and change of basis S with t = S^-1 @ F @ S."""

    blocks: tuple[Gf2Poly, ...]
    form: BitMatrix
    transform: BitMatrix


def companion_matrix(f: Gf2Poly) -> BitMatrix:
    """Companion matrix of a nonzero polynomial.

    Convention used across this package: ones on the subdiagonal and the
    coefficients of f (lowest degree first) down the last column.
    """
    d = f.degree
    if d < 1:
        raise ValueError("companion matrix needs degree >= 1")
    return BitMatrix((((1 << i) >> 1) | (((f.bits >> i) & 1) << (d - 1))
                      for i in range(d)), d)


_Tables = tuple[list[int], ...]


@lru_cache(maxsize=1)
def _byte_tables(t: BitMatrix) -> _Tables:
    """Per-byte XOR tables of t's columns: entry x of table b is the XOR of
    the columns 8b + i for the set bits i of x (a four-Russians table)."""
    cols = list(t.transpose())
    tables = []
    for b in range(0, len(cols), 8):
        tab = [0]
        for c in cols[b:b + 8]:
            tab += [x ^ c for x in tab]
        tables.append(tab)
    return tuple(tables)


def _times(tables: _Tables, v: int) -> int:
    """t @ v from t's byte tables; equals xor_rows(columns of t, v)."""
    acc = 0
    for tab, byte in zip(tables, v.to_bytes(len(tables), "little")):
        acc ^= tab[byte]
    return acc


def _apply_poly(tables: _Tables, f: Gf2Poly, v: int) -> int:
    """f(t) @ v, evaluated power by power."""
    acc = 0
    cur = v
    bits = f.bits
    while bits:
        if bits & 1:
            acc ^= cur
        bits >>= 1
        if bits:
            cur = _times(tables, cur)
    return acc


def _chain(tables: _Tables, span: Reducer, u: int) -> Gf2Poly:
    """Minimal monic f with f(t) @ u inside the span; the span grows by
    u's cyclic chain modulo it.

    Vector t^j @ u goes in with tag 1 << (start + j), start being the span's
    size on entry, until one is dependent; that vector's witness bits from
    bit start up are exactly the low coefficients of f.
    """
    start = j = len(span)
    # a residue leads at a free bit: insert reduces it no further
    while (red := span.reduce(u))[0]:
        span.insert(red[0], red[1] ^ (1 << j))
        u = _times(tables, u)
        j += 1
    return Gf2Poly((1 << (j - start)) ^ (red[1] >> start))


def _conductor(tables: _Tables, span: Reducer, u: int) -> Gf2Poly:
    """Minimal monic f with f(t) @ u inside the given span, left unchanged."""
    return _chain(tables, span.copy(), u)


def char_poly(m: BitMatrix) -> Gf2Poly:
    """Characteristic polynomial from Krylov chains (Keller-Gehrig).

    The chains of the unit vectors, each taken modulo the span of the ones
    before, fill the whole space; in that basis m is block upper triangular
    with one companion block per chain, so char_poly is the product of the
    chains' polynomials. A unit vector already in the span closes with 1.
    """
    n = m.rows
    if n != m.cols:
        raise ValueError("characteristic polynomial requires a square matrix")
    tables = _byte_tables(m)
    span = Reducer()
    return prod((_chain(tables, span, 1 << i) for i in range(n)), start=ONE)


def invariant_factors(t: BitMatrix) -> list[list[tuple[Gf2Poly, int]]]:
    """Invariant factors of a square t, largest first, each as its factors.

    Entry r lists (p, e) in `factor` order for every prime p of the r-th
    largest invariant factor s_r = prod p^e; each s_r divides s_{r-1} and
    their product is char_poly(t), the only polynomial factored. A prime of
    multiplicity 1 has one block of exponent 1. For any other prime p, the
    kernel dimension d_j of p(t)^j grows by deg p times the number of blocks
    of exponent at least j, up to d_j = deg p times the multiplicity.
    """
    n = t.rows
    tables = _byte_tables(t)
    rounds: list[list[tuple[Gf2Poly, int]]] = []
    for p, m in factor(char_poly(t)):
        exponents = [1]
        if m > 1:
            cols = [1 << i for i in range(n)]  # columns of p(t)^j
            at_least: list[int] = []           # blocks of exponent >= j
            kernel = 0
            while kernel < m * p.degree:
                cols = [_apply_poly(tables, p, c) for c in cols]
                grown = n - rank(BitMatrix(cols, n))
                if grown == kernel:
                    raise AssertionError("kernel of p(t)^j stopped growing")
                at_least.append((grown - kernel) // p.degree)
                kernel = grown
            exponents = [sum(1 for c in at_least if c > r)
                         for r in range(at_least[0])]
        for r, e in enumerate(exponents):
            if r == len(rounds):
                rounds.append([])
            rounds[r].append((p, e))
    return rounds


def frobenius_normal_form(t: BitMatrix) -> FrobeniusForm:
    """Decompose t into companion blocks of prime-power polynomials.

    Returns a FrobeniusForm whose form F satisfies t = S^-1 @ F @ S exactly
    (verified before returning). The product of the block polynomials is the
    characteristic polynomial of t, and the block multiset is canonical.
    """
    if t.rows != t.cols:
        raise ValueError("normal form requires a square matrix")
    return _deflate(t, invariant_factors(t))


def _deflate(t: BitMatrix, factors: list[list[tuple[Gf2Poly, int]]]
             ) -> FrobeniusForm:
    """The normal form of t from its invariant factors, as returned by
    `invariant_factors(t)`; the blocks follow their order."""
    n = t.rows
    tables = _byte_tables(t)

    span = Reducer()
    chain_vectors: list[int] = []
    raw_blocks: list[tuple[int, Gf2Poly, list[tuple[Gf2Poly, int]]]] = []

    for parts in factors:
        # a vector achieving the quotient minimal polynomial, which is the
        # round's invariant factor; once fw reaches it, every later
        # conductor divides fw and the scan could not change w
        target = prod((p ** e for p, e in parts), start=ONE)
        w = 0
        fw = ONE
        for i in range(n):
            e = 1 << i
            if span.reduce(e)[0] == 0:
                continue
            fi = _conductor(tables, span, e)
            if poly_lcm(fw, fi) == fw:
                continue
            # from fw = ONE this gives w = e, fw = fi
            a, b = coprime_split(fw, fi)
            w = _apply_poly(tables, fw // a, w) ^ _apply_poly(tables, fi // b, e)
            fw = a * b
            if fw == target:
                break
        if fw != target:
            raise AssertionError("deflation missed the invariant factor")
        if _conductor(tables, span, w) != fw:
            raise AssertionError("combined vector missed the quotient annihilator")

        # correct w so its annihilator is exactly fw: fw(t) w lies in the
        # span, and the span is closed enough that fw(t) w = fw(t) w' has a
        # solution w' inside it (guaranteed by the maximal-conductor choice)
        images = BitMatrix([_apply_poly(tables, fw, v) for v in chain_vectors], n)
        combo = solve_left(images, _apply_poly(tables, fw, w))
        if combo is None:
            raise AssertionError("cyclic deflation lost solvability")
        u = w ^ xor_rows(chain_vectors, combo)
        if _apply_poly(tables, fw, u):
            raise AssertionError("corrected generator is not annihilated")

        cur = u
        for _ in range(fw.degree):
            if not span.insert(cur):
                raise AssertionError("cyclic chain collapsed")
            chain_vectors.append(cur)
            cur = _times(tables, cur)
        raw_blocks.append((u, fw, parts))

    # split each invariant-factor block into prime-power companion blocks
    blocks: list[Gf2Poly] = []
    vectors: list[int] = []
    for u, f, parts in raw_blocks:
        for p, e in parts:
            pe = p ** e
            cur = _apply_poly(tables, f // pe, u)
            for _ in range(pe.degree):
                vectors.append(cur)
                cur = _times(tables, cur)
            blocks.append(pe)

    basis = BitMatrix(vectors, n).transpose()  # chain vectors as columns
    form = block_diagonal([companion_matrix(f) for f in blocks])
    if t @ basis != basis @ form:
        raise AssertionError("normal form reconstruction failed")
    transform = invert(basis)
    return FrobeniusForm(blocks=tuple(blocks), form=form, transform=transform)
