"""Generalized automorphisms of binary linear codes.

An invertible matrix t is a generalized automorphism of a code when it maps
every codeword to a codeword, i.e. the null space of H is invariant under t.
The set of such matrices is conjugate, through any invertible basis change A
with H @ A = [I | 0], to the group of block matrices with a zero upper-right
(n-k) x k block. That conjugation is also the engine of the constructive
direction: put a sparse random matrix into companion normal form, order the
blocks so the form lands in the zero-block group, and read a parity-check
matrix off the top rows of the inverse basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .codes import (DualWordPool, LinearCode, ReductionError,
                    low_weight_dual_search, optimize_pcm, reduce_zero_columns)
from .frobenius import _deflate, invariant_factors
from .gf2 import (BitMatrix, SingularMatrixError, _check_count, invert,
                  rank)


@dataclass(frozen=True)
class GeneralizedAutomorphism:
    """A code-preserving invertible matrix together with its inverse."""

    matrix: BitMatrix
    inverse: BitMatrix

    def __post_init__(self) -> None:
        n = self.matrix.rows
        if self.matrix.cols != n or self.inverse.shape != (n, n):
            raise ValueError("automorphism matrices must be square and matched")
        if self.matrix @ self.inverse != BitMatrix.identity(n):
            raise ValueError("inverse does not match the matrix")

    @classmethod
    def from_matrix(cls, t: BitMatrix) -> "GeneralizedAutomorphism":
        return cls(t, invert(t))

    @classmethod
    def identity(cls, n: int) -> "GeneralizedAutomorphism":
        eye = BitMatrix.identity(n)
        return cls(eye, eye)

    @property
    def n(self) -> int:
        return self.matrix.rows

    @property
    def omega(self) -> int:
        """Number of nonzero entries."""
        return self.matrix.weight

    @property
    def delta(self) -> int:
        """Excess weight over a permutation; zero iff t is a permutation."""
        return self.omega - self.n

    def power(self, alpha: int) -> BitMatrix:
        base = self.matrix if alpha >= 0 else self.inverse
        return base.power(abs(alpha))


def verify_automorphism(c: LinearCode, t: BitMatrix) -> bool:
    """True iff t is invertible and maps every codeword of c to a codeword."""
    if t.shape != (c.n, c.n):
        raise ValueError(f"matrix shape {t.shape} does not match the code "
                         f"length: size {c.n} x {c.n} needed")
    if rank(t) != c.n:
        return False
    return (c.h @ t @ c.g.transpose()).is_zero()


@dataclass(frozen=True)
class Ccm:
    """Basis change A with H @ A = [I | 0] for a given code.

    The first n-k rows of A's inverse reproduce H exactly, since the two
    checked identities give H = [I | 0] @ A^-1. So A simultaneously
    normalizes the parity-check matrix and exposes the conjugate block
    structure of the code's automorphisms.
    """

    code: LinearCode
    basis: BitMatrix
    basis_inv: BitMatrix

    def __post_init__(self) -> None:
        n, r = self.code.n, self.code.n - self.code.k
        if self.basis.shape != (n, n) or self.basis_inv.shape != (n, n):
            raise ValueError("basis must be n x n")
        if self.basis @ self.basis_inv != BitMatrix.identity(n):
            raise ValueError("basis_inv is not the inverse of basis")
        normal = self.code.h @ self.basis
        if list(normal) != [1 << i for i in range(r)]:
            raise ValueError("basis does not normalize H to [I | 0]")


def compute_ccm(c: LinearCode) -> Ccm:
    """Characterizing basis for c: A^-1 is H over unit rows.

    Below H's rows come the unit rows e_f of H's free columns: the lowest
    bit of each row of G, its one 1 among those columns. So A's last k
    columns are G's rows.
    """
    basis_inv = BitMatrix(list(c.h) + [g & -g for g in c.g], c.n)
    return Ccm(code=c, basis=invert(basis_inv), basis_inv=basis_inv)


def membership_in_z(ccm: Ccm, t: BitMatrix) -> bool:
    """Test t by conjugating into the zero-block group.

    Equivalent to verify_automorphism on invertible input; raises
    SingularMatrixError when t is singular.
    """
    n, r = ccm.code.n, ccm.code.n - ccm.code.k
    if t.shape != (n, n):
        raise ValueError(f"matrix shape {t.shape} does not match the code "
                         f"length: size {n} x {n} needed")
    if rank(t) != n:
        raise SingularMatrixError("membership test requires an invertible matrix")
    conj = ccm.basis_inv @ t @ ccm.basis
    return all(conj.row_bits(i) >> r == 0 for i in range(r))


@dataclass(frozen=True)
class ZBlockMatrix:
    """Invertible matrix whose upper-right (n-k) x k block is zero."""

    matrix: BitMatrix
    num_checks: int

    def __post_init__(self) -> None:
        n, r = self.matrix.rows, self.num_checks
        if self.matrix.cols != n or not 0 < r < n:
            raise ValueError("bad block split")
        if any(self.matrix.row_bits(i) >> r for i in range(r)):
            raise ValueError("upper-right block is not zero")
        if rank(self.matrix) != n:
            raise SingularMatrixError("block matrix must be invertible")

    @classmethod
    def from_blocks(cls, c: BitMatrix, d: BitMatrix, e: BitMatrix) -> "ZBlockMatrix":
        """Assemble [[c, 0], [d, e]] from the three free blocks."""
        r, k = c.rows, e.rows
        if c.cols != r or e.cols != k or d.shape != (k, r):
            raise ValueError("block shapes are inconsistent")
        rows = list(c) + [d.row_bits(i) | (e.row_bits(i) << r) for i in range(k)]
        return cls(BitMatrix(rows, r + k), r)


def random_z_block(n: int, k: int, rng: np.random.Generator) -> ZBlockMatrix:
    """Uniform sample of the zero-block group via its free blocks."""
    r = n - k
    return ZBlockMatrix.from_blocks(BitMatrix.random_invertible(r, rng),
                                    BitMatrix.random(k, r, rng),
                                    BitMatrix.random_invertible(k, rng))


def conjugate_z(ccm: Ccm, z: ZBlockMatrix) -> GeneralizedAutomorphism:
    """Map a zero-block matrix to the corresponding code automorphism."""
    if z.matrix.rows != ccm.code.n or z.num_checks != ccm.code.n - ccm.code.k:
        raise ValueError("block matrix does not match the code")
    return GeneralizedAutomorphism.from_matrix(ccm.basis @ z.matrix @ ccm.basis_inv)


def order_blocks(sizes: tuple[int, ...] | list[int], k: int) -> tuple[int, ...] | None:
    """Order companion blocks so the form gets a zero upper-right block.

    Finds the lexicographically first (by index) subset of block sizes
    summing to k; the remaining blocks go first, so the combined form is
    block-diagonal with an (n-k) x (n-k) leading part. Returns None when no
    subset hits k.
    """
    total = sum(sizes)
    if not 0 <= k <= total:
        return None
    reach = [0] * (len(sizes) + 1)
    reach[len(sizes)] = 1
    for i in range(len(sizes) - 1, -1, -1):
        reach[i] = reach[i + 1] | (reach[i + 1] << sizes[i])
    if not (reach[0] >> k) & 1:
        return None
    subset = []
    rem = k
    for i, d in enumerate(sizes):
        if d <= rem and (reach[i + 1] >> (rem - d)) & 1:
            subset.append(i)
            rem -= d
    chosen = set(subset)
    complement = [i for i in range(len(sizes)) if i not in chosen]
    return tuple(complement + subset)


def sample_sparse_invertible(n: int, omega_obj: int,
                             rng: np.random.Generator | int) -> BitMatrix:
    """Invertible n x n matrix with exactly omega_obj nonzero entries.

    Starts from a random permutation matrix (weight n) and adds the excess
    as distinct off-permutation ones, rejecting singular draws.
    """
    _check_count("n", n, 0)
    _check_count("omega_obj", omega_obj)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if omega_obj < n or omega_obj > n * n:
        raise ValueError(f"omega_obj={omega_obj} impossible for n={n}")
    extras = omega_obj - n
    for _ in range(10_000):
        perm = rng.permutation(n)
        rows = [1 << int(perm[i]) for i in range(n)]
        if extras:
            cells = rng.choice(n * (n - 1), size=extras, replace=False)
            for cell in cells.tolist():
                i, off = divmod(cell, n - 1)
                j = off if off < perm[i] else off + 1
                rows[i] |= 1 << j
        m = BitMatrix(rows, n)
        if rank(m) == n:
            return m
    raise ValueError("sampling budget exhausted without an invertible draw")


class ConstructionError(RuntimeError):
    """Resampling budget ran out before a construction succeeded."""

    def __init__(self, attempts: int, ordering_failures: int,
                 reduction_failures: int):
        self.attempts = attempts
        self.ordering_failures = ordering_failures
        self.reduction_failures = reduction_failures
        super().__init__(
            f"no construction in {attempts} attempts "
            f"({ordering_failures} block-ordering misses, "
            f"{reduction_failures} reduction failures)")


@dataclass(frozen=True)
class ConstructionResult:
    """A constructed code with its designed automorphism and statistics."""

    code: LinearCode
    aut: GeneralizedAutomorphism
    ccm: Ccm
    t_squared: BitMatrix
    attempts: int
    ordering_failures: int
    reduction_failures: int
    frozen_positions: tuple[int, ...]
    pre_reduction_omega: int


def construct_code_with_automorphism(n: int, k: int, delta_obj: int, seed: int,
                                     max_resamples: int = 200
                                     ) -> ConstructionResult:
    """Build an (n, k) code that owns a designed sparse automorphism.

    Pipeline per attempt: sample an invertible matrix of weight n +
    delta_obj, order its companion blocks (sized by its invariant factors)
    so a size-k subset sits in the lower-right corner, bring it to normal
    form F = S t S^-1, take H as the rows of S for the blocks outside the
    subset, drop coordinates frozen at zero, then re-derive a low-weight
    PCM. Block orderings that do not exist and reductions that break
    invertibility are counted and resampled, up to max_resamples.
    """
    _check_count("n", n)
    _check_count("k", k)
    _check_count("delta_obj", delta_obj, 0)
    _check_count("seed", seed, 0)
    _check_count("max_resamples", max_resamples, 1)
    if not 0 < k < n:
        raise ValueError("need 0 < k < n")
    ordering_failures = 0
    reduction_failures = 0
    for attempt in range(1, max_resamples + 1):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, attempt)))
        t = sample_sparse_invertible(n, n + delta_obj, rng)
        # the invariant factors give the block sizes in the normal form's
        # block order, so a failed ordering skips the deflation
        factors = invariant_factors(t)
        sizes = [p.degree * e for parts in factors for p, e in parts]
        order = order_blocks(sizes, k)
        if order is None:
            ordering_failures += 1
            continue
        starts = list(accumulate(sizes, initial=0))
        cols = [c for b in order for c in range(starts[b], starts[b + 1])]
        # S's rows for the blocks outside the subset vanish on the subset's
        # chain vectors, which span a t-invariant k-space as F is block
        # diagonal: that space is H's null space
        h = _deflate(t, factors).transform.take_rows(cols[: n - k])
        code0 = LinearCode(h)
        try:
            code1, t1, frozen = reduce_zero_columns(code0, t)
        except ReductionError:
            reduction_failures += 1
            continue
        aut = GeneralizedAutomorphism.from_matrix(t1)
        pool_seed = int(rng.integers(0, 2**63))
        opt_seed = int(rng.integers(0, 2**63))
        pool = low_weight_dual_search(
            code1, target_count=max(8 * (code1.n - code1.k), 256),
            seed=pool_seed)
        # the lightest words alone may not span; the PCM optimizer needs a
        # spanning pool, and the current rows of H always provide one
        pool = DualWordPool(pool.words + tuple(code1.h), code1.n)
        code2 = optimize_pcm(code1, pool, seed=opt_seed)
        if not verify_automorphism(code2, t1):
            raise AssertionError("constructed matrix failed the automorphism check")
        return ConstructionResult(
            code=code2, aut=aut, ccm=compute_ccm(code2),
            t_squared=t1 @ t1, attempts=attempt,
            ordering_failures=ordering_failures,
            reduction_failures=reduction_failures,
            frozen_positions=frozen,
            pre_reduction_omega=t.weight)
    raise ConstructionError(max_resamples, ordering_failures, reduction_failures)
