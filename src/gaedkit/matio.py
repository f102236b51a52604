"""Text file formats: dense 0/1 matrices, alist adjacency, key=value files."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .gf2 import BitMatrix


def write_dense(m: BitMatrix, path) -> None:
    """Dense format: first line "rows cols", then one 0/1 string per row."""
    lines = [f"{m.rows} {m.cols}"]
    # bin() of r with a marker bit at cols, reversed, less "0b1": bit 0 first
    lines += [bin(r | 1 << m.cols)[:2:-1] for r in m]
    Path(path).write_text("\n".join(lines) + "\n")


def read_dense(path) -> BitMatrix:
    text = Path(path).read_text().split("\n")
    lines = [ln.strip() for ln in text if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    head = lines[0].split()
    if len(head) != 2 or not all(p.isdigit() for p in head):
        raise ValueError(f"{path}: header must be 'rows cols'")
    rows, cols = int(head[0]), int(head[1])
    if len(lines) - 1 != rows:
        raise ValueError(f"{path}: expected {rows} rows, found {len(lines) - 1}")
    bits = []
    for i, ln in enumerate(lines[1:]):
        if len(ln) != cols or set(ln) - {"0", "1"}:
            raise ValueError(f"{path}: row {i} is not {cols} characters of 0/1")
        bits.append(int(ln[::-1], 2))
    return BitMatrix(bits, cols)


def write_alist(m: BitMatrix, path) -> None:
    """Sparse adjacency format: "n m" header, max degrees, per-column and
    per-row degree lists, then 1-indexed adjacency lists padded with zeros.
    """
    rows, cols = m.shape
    bits = m.to_numpy()
    col_adj = [(np.flatnonzero(c) + 1).tolist() for c in bits.T]
    row_adj = [(np.flatnonzero(r) + 1).tolist() for r in bits]
    max_col = max((len(a) for a in col_adj), default=0)
    max_row = max((len(a) for a in row_adj), default=0)
    out = [f"{cols} {rows}", f"{max_col} {max_row}",
           " ".join(str(len(a)) for a in col_adj),
           " ".join(str(len(a)) for a in row_adj)]
    for adj, width in ((col_adj, max_col), (row_adj, max_row)):
        for a in adj:
            out.append(" ".join(str(v) for v in a + [0] * (width - len(a))))
    Path(path).write_text("\n".join(out) + "\n")


def read_alist(path) -> BitMatrix:
    tokens = Path(path).read_text().split()
    if len(tokens) < 4:
        raise ValueError(f"{path}: truncated alist file")
    it = iter(tokens)

    def take(count: int, what: str) -> list[int]:
        vals = []
        for _ in range(count):
            tok = next(it, None)
            if tok is None:
                raise ValueError(f"{path}: ran out of data reading {what}")
            if not tok.lstrip("-").isdigit():
                raise ValueError(f"{path}: non-integer token {tok!r} in {what}")
            vals.append(int(tok))
        return vals

    cols, rows = take(2, "header")
    if cols <= 0 or rows <= 0:
        raise ValueError(f"{path}: non-positive dimensions in header")
    max_col, max_row = take(2, "max degrees")
    col_deg = take(cols, "column degrees")
    row_deg = take(rows, "row degrees")
    if col_deg and max(col_deg) > max_col or row_deg and max(row_deg) > max_row:
        raise ValueError(f"{path}: degree list exceeds declared maximum")
    bits = [0] * rows
    col_entries = 0
    for j in range(cols):
        seen = 0
        for v in take(max_col, f"adjacency of column {j}"):
            if v == 0:
                continue
            if not 1 <= v <= rows:
                raise ValueError(f"{path}: row index {v} out of range")
            bits[v - 1] |= 1 << j
            seen += 1
        if seen != col_deg[j]:
            raise ValueError(f"{path}: column {j} degree mismatch")
        col_entries += seen
    check_bits = [0] * rows
    for i in range(rows):
        seen = 0
        for v in take(max_row, f"adjacency of row {i}"):
            if v == 0:
                continue
            if not 1 <= v <= cols:
                raise ValueError(f"{path}: column index {v} out of range")
            check_bits[i] |= 1 << (v - 1)
            seen += 1
        if seen != row_deg[i]:
            raise ValueError(f"{path}: row {i} degree mismatch")
    if bits != check_bits:
        raise ValueError(f"{path}: row and column adjacency lists disagree")
    if next(it, None) is not None:
        raise ValueError(f"{path}: data after the last adjacency list")
    return BitMatrix(bits, cols)


def write_kv(pairs: dict, path) -> None:
    """Flat key = value text, one pair per line. A pair that `read_kv`
    would not read back, with a newline or a # after whitespace, raises."""
    lines = [f"{k} = {v}" for k, v in pairs.items()]
    for line in lines:
        if re.search(r"\n|\s#", line):
            raise ValueError(f"{line!r} does not read back as key = value")
    Path(path).write_text("\n".join(lines) + "\n")


def read_kv(path) -> dict[str, str]:
    """key = value pairs; a # at line start or after whitespace begins a
    comment, so `out = a.csv  # note` reads `a.csv` and `a#b` stays whole."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().split("\n"), start=1):
        line = re.sub(r"(^|\s)#.*", "", raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out
