"""Dense exact linear algebra over GF(2).

A BitMatrix stores each row as a Python int bitset (bit j = column j), which
gives word-parallel XOR row operations at any width and keeps every result
exact. Matrices are immutable once built; all operations return new values.
"""

from __future__ import annotations

from numbers import Integral
from operator import index
from typing import Iterable, Iterator, Sequence

import numpy as np


class SingularMatrixError(ValueError):
    """Raised when an operation requires an invertible matrix and got none."""


# Packed layout of the numpy kernels: bit j of a row sits at bit j % 64 of
# little-endian uint64 word j // 64, so a width-n row takes ceil(n / 64)
# words, and unsigned word order, most significant word last, equals the
# order of the rows' int bitsets.

def bits_to_words(bits: np.ndarray) -> np.ndarray:
    """Pack a (..., n) array of 0/1 entries into (..., ceil(n/64)) words."""
    bits = np.asarray(bits)
    n = bits.shape[-1]
    out = np.zeros(bits.shape[:-1] + (8 * -(-n // 64),), dtype=np.uint8)
    out[..., :-(-n // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return out.view("<u8")


def words_to_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Bits 0..n-1 of packed words, as uint8 along the last axis."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=-1, count=n, bitorder="little")


def ints_to_words(rows: Sequence[int], n: int) -> np.ndarray:
    """Int bitsets of width n to a (len(rows), ceil(n/64)) word array."""
    size = 8 * -(-n // 64)
    raw = b"".join(r.to_bytes(size, "little") for r in rows)
    return np.frombuffer(raw, dtype="<u8").reshape(len(rows), size // 8).copy()


def words_to_ints(words: np.ndarray) -> list[int]:
    """The int bitset of each row of a 2-D word array."""
    return [int.from_bytes(row.tobytes(), "little")
            for row in np.ascontiguousarray(words, dtype="<u8")]


def _is_integer(value) -> bool:
    """An int or a numpy integer. A float count would fail mid-sweep inside
    numpy or `range`; a bool is an Integral, but True is no count."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _check_count(name: str, value, low: int | None = None) -> None:
    """The one count rule: value must pass `_is_integer` and, when low is
    given, be at least low. Each error names the argument and its value."""
    # exact ints first: BitMatrix and Gf2Poly check a count per instance
    if type(value) is not int and not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        bound = "non-negative" if low == 0 else f"at least {low}"
        raise ValueError(f"{name} must be {bound}, got {value}")


def _as_tuple(name: str, value) -> tuple:
    """value as a tuple. A string iterates as characters and a bare number
    not at all, so both are refused by name."""
    if isinstance(value, str) or not np.iterable(value):
        raise ValueError(f"{name} must be a sequence, got {value!r}")
    return tuple(value)


def _check_bools(obj, *names: str) -> None:
    """Each named field must be a bool or a numpy bool; an integer would
    index an array where a mask was meant, and a string is always true."""
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{name} must be a bool, got {value!r}")


class BitMatrix:
    """Immutable dense matrix over GF(2) with int-bitset rows."""

    __slots__ = ("rows", "cols", "_bits")

    def __init__(self, row_bits: Iterable[int], cols: int):
        _check_count("cols", cols, 0)
        bits = tuple(row_bits)
        try:
            bits = tuple(map(index, bits))  # ints or numpy integers only
        except TypeError:
            i = next(i for i, r in enumerate(bits) if not hasattr(type(r), "__index__"))
            raise ValueError(f"row {i} must be an integer, got {bits[i]!r}") from None
        limit = 1 << cols
        for r in bits:
            if r < 0 or r >= limit:
                raise ValueError("row value out of range for declared width")
        self.rows = len(bits)
        self.cols = cols
        self._bits = bits

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        _check_count("n", n, 0)
        return cls((1 << i for i in range(n)), n)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BitMatrix":
        """Build from nested 0/1 sequences (row-major); no rows is 0x0."""
        return cls.from_numpy(np.array(rows) if len(rows) else np.empty((0, 0)))

    @classmethod
    def from_numpy(cls, arr: np.ndarray) -> "BitMatrix":
        """Build from a 2-D array whose entries are all 0 or 1."""
        a = np.asarray(arr)
        if a.ndim != 2:
            raise ValueError("expected a 2-D array")
        if ((a != 0) & (a != 1)).any():
            raise ValueError("entries must be 0 or 1")
        return cls(words_to_ints(bits_to_words(a != 0)), a.shape[1])

    @classmethod
    def random(cls, rows: int, cols: int, rng: np.random.Generator) -> "BitMatrix":
        draws = rng.integers(0, 2**63, size=(rows, (cols + 62) // 63),
                             dtype=np.int64)
        bits = []
        for parts in draws.tolist():
            v = 0
            for w in parts:
                v = (v << 63) | w
            bits.append(v & ((1 << cols) - 1))
        return cls(bits, cols)

    @classmethod
    def random_invertible(cls, n: int, rng: np.random.Generator) -> "BitMatrix":
        """Uniform over the invertible matrices, by rejection."""
        while True:
            m = cls.random(n, n, rng)
            if rank(m) == n:
                return m

    # -- element access ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    def row_bits(self, i: int) -> int:
        return self._bits[i]

    def __iter__(self):
        return iter(self._bits)

    # -- predicates and measures -------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._bits)

    @property
    def weight(self) -> int:
        """Total number of nonzero entries."""
        return sum(r.bit_count() for r in self._bits)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BitMatrix) and self.cols == other.cols
                and self._bits == other._bits)

    def __hash__(self) -> int:
        return hash((self.cols, self._bits))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols}, weight={self.weight})"

    # -- algebra -----------------------------------------------------------

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        return BitMatrix((xor_rows(other._bits, a) for a in self._bits),
                         other.cols)

    def transpose(self) -> "BitMatrix":
        return BitMatrix.from_numpy(self.to_numpy().T)

    def power(self, e: int) -> "BitMatrix":
        """Matrix power for e >= 0 (square matrices only)."""
        if self.rows != self.cols:
            raise ValueError("power requires a square matrix")
        _check_count("e", e, 0)
        result = BitMatrix.identity(self.rows)
        base = self
        while e:
            if e & 1:
                result = result @ base
            base = base @ base
            e >>= 1
        return result

    # -- structure ---------------------------------------------------------

    def take_rows(self, idx: Sequence[int]) -> "BitMatrix":
        _checked(idx, self.rows, "row")
        return BitMatrix((self._bits[i] for i in idx), self.cols)

    def take_cols(self, idx: Sequence[int]) -> "BitMatrix":
        idx = _checked(idx, self.cols, "column")
        return BitMatrix.from_numpy(self.to_numpy()[:, idx])

    def to_numpy(self) -> np.ndarray:
        return words_to_bits(ints_to_words(self._bits, self.cols), self.cols)


def _checked(idx: Sequence[int], size: int, axis: str) -> np.ndarray:
    """idx as intp, or IndexError naming its first entry outside 0..size-1.
    A bool or float entry is refused: numpy would read it as 1 or 0."""
    arr = np.asarray(idx)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{axis} indices must be integers, got {idx!r}")
    idx = arr.astype(np.intp)
    bad = idx[(idx < 0) | (idx >= size)]
    if bad.size:
        raise IndexError(f"{axis} {bad[0]} out of range for {size} {axis}s")
    return idx


def xor_rows(rows: Sequence[int], mask: int) -> int:
    """XOR of the rows that the set bits of mask pick (bit i picks rows[i])."""
    acc = 0
    while mask:
        low = mask & -mask
        acc ^= rows[low.bit_length() - 1]
        mask ^= low
    return acc


class Reducer:
    """Forward-elimination span tracker over int-bitset vectors.

    Holds one stored (vector, witness) pair per leading bit. Each witness
    is a bitset over caller-chosen tags, so a reduction reports which
    tagged vectors it used; vectors inserted with tag 0 (the ambient space)
    contribute nothing to witnesses. A witness is the unique combination of
    the kept tagged vectors, so it does not depend on how the stored
    vectors were reduced.
    """

    __slots__ = ("pivots",)

    def __init__(self, pivots=None):
        self.pivots: dict[int, tuple[int, int]] = dict(pivots or {})

    def copy(self) -> "Reducer":
        return Reducer(self.pivots)

    def reduce(self, v: int) -> tuple[int, int]:
        """Reduce v while its leading bit has a stored vector.

        Returns (residue, witness). The residue is 0 exactly when v is in
        the span; a nonzero residue is reduced at its leading bit only.
        """
        combo = 0
        while v:
            row = self.pivots.get(v.bit_length() - 1)
            if row is None:
                break
            v ^= row[0]
            combo ^= row[1]
        return v, combo

    def insert(self, v: int, witness: int = 0) -> bool:
        v, combo = self.reduce(v)
        if not v:
            return False
        self.pivots[v.bit_length() - 1] = (v, combo ^ witness)
        return True

    def __len__(self) -> int:
        return len(self.pivots)


def independent_rows(rows: Iterable[int]) -> Iterator[int]:
    """Indices of the rows outside the span of the rows before them."""
    span = Reducer()
    for i, v in enumerate(rows):
        if span.insert(v):
            yield i


def rank(m: BitMatrix) -> int:
    return sum(1 for _ in independent_rows(m))


def invert(m: BitMatrix) -> BitMatrix:
    """Inverse over GF(2); raises SingularMatrixError when none exists.

    Row i of m goes in with tag 1 << i, so the witness of e_c is the
    combination of rows of m that gives e_c: row c of the inverse.
    """
    n = m.rows
    if n != m.cols:
        raise ValueError("inverse requires a square matrix")
    span = Reducer()
    for i, row in enumerate(m):
        if not span.insert(row, 1 << i):
            raise SingularMatrixError("matrix is singular")
    return BitMatrix((span.reduce(1 << c)[1] for c in range(n)), n)


def null_space_basis(m: BitMatrix) -> BitMatrix:
    """Basis of {x : m @ x = 0}, one vector per row of the result.

    One descending pass over m's columns, column j tagged 1 << j: column f
    is free when it lies in the span of the later columns, and its vector
    is 1 << f plus the witness naming them. So each vector's lowest bit is
    its free column, in ascending order, and no vector has a 1 in another's
    free column: the null space has one such basis, whatever m's rows.
    """
    cols = list(m.transpose())
    span = Reducer()
    free = []
    for j in reversed(range(m.cols)):
        v, witness = span.reduce(cols[j])
        if v:
            span.insert(v, witness | 1 << j)
        else:
            free.append(witness | 1 << j)
    return BitMatrix(reversed(free), m.cols)


def solve_left(m: BitMatrix, y: int) -> int | None:
    """Solve x @ m = y for a row-combination bitset x, or None if unsolvable."""
    span = Reducer()
    for i, row in enumerate(m):
        span.insert(row, 1 << i)
    v, combo = span.reduce(y)
    return None if v else combo


def block_diagonal(blocks: Sequence[BitMatrix]) -> BitMatrix:
    rows = []
    offset = 0
    total = sum(b.cols for b in blocks)
    for b in blocks:
        if b.rows != b.cols:
            raise ValueError("blocks must be square")
        for r in b:
            rows.append(r << offset)
        offset += b.cols
    return BitMatrix(rows, total)
