"""Rational canonical form of a square matrix over GF(2).

The decomposition writes any square t as t = S^-1 @ F @ S with F a block
diagonal of companion matrices. Blocks are produced by iterated cyclic
deflation: each round picks a vector whose annihilator modulo the space
already spanned is maximal (the quotient minimal polynomial), corrects it to
an exact annihilator, and appends its cyclic chain. The resulting
invariant-factor blocks are then split further into prime-power components,
which gives the finest companion-block decomposition the matrix admits.

Column vectors are int bitsets (bit i = coordinate i), matching BitMatrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import (BitMatrix, Reducer, block_diagonal, companion_matrix,
                  invert, solve_left, xor_rows)
from .gf2poly import ONE, Gf2Poly, coprime_split, factor, poly_lcm


@dataclass(frozen=True)
class FrobeniusForm:
    """Normal form F and change of basis S with t = S^-1 @ F @ S."""

    blocks: tuple[Gf2Poly, ...]
    form: BitMatrix
    transform: BitMatrix

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(f.degree for f in self.blocks)


def _apply_poly(tt_rows: tuple[int, ...], f: Gf2Poly, v: int) -> int:
    """f(t) @ v, evaluated power by power; tt_rows holds the columns of t."""
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


def _conductor(tt_rows: tuple[int, ...], span: Reducer, u: int) -> Gf2Poly:
    """Minimal monic f with f(t) @ u inside the given span.

    Builds the cyclic chain of u in the quotient by the span; the witness
    bits of the first dependence are exactly the low coefficients of f.
    """
    local = span.copy()
    j = 0
    while local.insert(u, 1 << j):
        u = xor_rows(tt_rows, u)
        j += 1
    return Gf2Poly((1 << j) ^ local.reduce(u)[1])


def frobenius_normal_form(t: BitMatrix) -> FrobeniusForm:
    """Decompose t into companion blocks of prime-power polynomials.

    Returns a FrobeniusForm whose form F satisfies t = S^-1 @ F @ S exactly
    (verified before returning). The product of the block polynomials is the
    characteristic polynomial of t, and the block multiset is canonical.
    """
    n = t.rows
    if n != t.cols:
        raise ValueError("normal form requires a square matrix")
    tt_rows = tuple(t.transpose())

    span = Reducer()
    chain_vectors: list[int] = []
    raw_blocks: list[tuple[int, Gf2Poly]] = []  # (generator, annihilator)

    while len(span) < n:
        # quotient minimal polynomial, achieved by an explicit vector
        quotient_dim = n - len(span)
        w = 0
        fw = ONE
        for i in range(n):
            e = 1 << i
            if span.reduce(e)[0] == 0:
                continue
            fi = _conductor(tt_rows, span, e)
            l = poly_lcm(fw, fi)
            if l == fw:
                continue
            if fw.is_one():
                w, fw = e, fi
            else:
                a, b = coprime_split(fw, fi)
                w = (_apply_poly(tt_rows, fw // a, w)
                     ^ _apply_poly(tt_rows, fi // b, e))
                fw = a * b
            if fw.degree == quotient_dim:
                break
        if _conductor(tt_rows, span, w) != fw:
            raise AssertionError("combined vector missed the quotient annihilator")

        # correct w so its annihilator is exactly fw: fw(t) w lies in the
        # span, and the span is closed enough that fw(t) w = fw(t) w' has a
        # solution w' inside it (guaranteed by the maximal-conductor choice)
        y = _apply_poly(tt_rows, fw, w)
        if chain_vectors:
            images = BitMatrix([_apply_poly(tt_rows, fw, v) for v in chain_vectors], n)
            combo = solve_left(images, y)
        else:
            combo = 0 if y == 0 else None
        if combo is None:
            raise AssertionError("cyclic deflation lost solvability")
        u = w ^ xor_rows(chain_vectors, combo)
        if _apply_poly(tt_rows, fw, u):
            raise AssertionError("corrected generator is not annihilated")

        cur = u
        for _ in range(fw.degree):
            if not span.insert(cur):
                raise AssertionError("cyclic chain collapsed")
            chain_vectors.append(cur)
            cur = xor_rows(tt_rows, cur)
        raw_blocks.append((u, fw))

    # split each invariant-factor block into prime-power companion blocks
    blocks: list[Gf2Poly] = []
    vectors: list[int] = []
    for u, f in raw_blocks:
        parts = factor(f)
        for p, e in parts:
            pe = ONE
            for _ in range(e):
                pe = pe * p
            gen = _apply_poly(tt_rows, f // pe, u) if len(parts) > 1 else u
            cur = gen
            for _ in range(pe.degree):
                vectors.append(cur)
                cur = xor_rows(tt_rows, cur)
            blocks.append(pe)

    basis = BitMatrix(vectors, n).transpose()  # chain vectors as columns
    form = (block_diagonal([companion_matrix(f) for f in blocks])
            if blocks else BitMatrix.identity(0))
    if t @ basis != basis @ form:
        raise AssertionError("normal form reconstruction failed")
    transform = invert(basis)
    return FrobeniusForm(blocks=tuple(blocks), form=form, transform=transform)
