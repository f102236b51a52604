"""File format round-trips and parse error reporting."""

import numpy as np
import pytest

from gaedkit.gf2 import BitMatrix
from gaedkit.matio import (read_alist, read_dense, read_kv, write_alist,
                           write_dense, write_kv)

HAMMING_74_H = BitMatrix.from_rows([
    [1, 0, 1, 0, 1, 0, 1],
    [0, 1, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
])


def random_matrix(rng, rows, cols):
    return BitMatrix.from_numpy(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))


def test_dense_roundtrip(tmp_path):
    rng = np.random.default_rng(40)
    for i in range(40):
        m = random_matrix(rng, int(rng.integers(1, 12)), int(rng.integers(1, 12)))
        p = tmp_path / f"d{i}.txt"
        write_dense(m, p)
        assert read_dense(p) == m


def per_bit_dense_text(m):
    """The dense writer's text, built one bit at a time."""
    lines = [f"{m.rows} {m.cols}"]
    for r in m:
        lines.append("".join("1" if (r >> j) & 1 else "0"
                             for j in range(m.cols)))
    return "\n".join(lines) + "\n"


def test_dense_writer_matches_per_bit_oracle(tmp_path):
    rng = np.random.default_rng(42)
    p = tmp_path / "d.txt"
    for cols in range(1, 131):
        m = random_matrix(rng, int(rng.integers(1, 6)), cols)
        for case in (m, BitMatrix([0, 0], cols),
                     BitMatrix([(1 << cols) - 1], cols)):
            write_dense(case, p)
            assert p.read_bytes() == per_bit_dense_text(case).encode()
            assert read_dense(p) == case


def test_dense_golden_content(tmp_path):
    p = tmp_path / "h.txt"
    write_dense(HAMMING_74_H, p)
    assert p.read_text() == "3 7\n1010101\n0110011\n0001111\n"


def test_dense_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_dense(p)
    p.write_text("2\n10\n01\n")
    with pytest.raises(ValueError, match="header"):
        read_dense(p)
    p.write_text("2 2\n10\n")
    with pytest.raises(ValueError, match="expected 2 rows"):
        read_dense(p)
    p.write_text("1 3\n10\n")
    with pytest.raises(ValueError, match="row 0"):
        read_dense(p)
    p.write_text("1 2\n1x\n")
    with pytest.raises(ValueError, match="row 0"):
        read_dense(p)


def test_alist_roundtrip(tmp_path):
    rng = np.random.default_rng(41)
    # more than 64 rows or columns spans two packed words
    shapes = [(int(rng.integers(1, 12)), int(rng.integers(1, 12)))
              for _ in range(40)] + [(70, 5), (3, 65), (66, 130)]
    for i, shape in enumerate(shapes):
        m = random_matrix(rng, *shape)
        p = tmp_path / f"a{i}.alist"
        write_alist(m, p)
        assert read_alist(p) == m


def test_alist_zero_column_and_row(tmp_path):
    # degree-0 columns and rows must survive the round-trip
    m = BitMatrix.from_rows([[0, 1, 0, 0], [0, 0, 0, 0], [0, 1, 0, 1]])
    p = tmp_path / "z.alist"
    write_alist(m, p)
    assert read_alist(p) == m


def test_alist_header_is_cols_rows(tmp_path):
    p = tmp_path / "h.alist"
    write_alist(HAMMING_74_H, p)
    first = p.read_text().splitlines()[0]
    assert first == "7 3"
    assert read_alist(p) == HAMMING_74_H


def test_alist_errors(tmp_path):
    p = tmp_path / "bad.alist"
    p.write_text("3\n")
    with pytest.raises(ValueError, match="truncated"):
        read_alist(p)
    p.write_text("0 2\n0 0\n\n\n")
    with pytest.raises(ValueError, match="non-positive"):
        read_alist(p)
    p.write_text("2 2\n1 1\n1 1\n1 1\n1\n1\n1\n")
    with pytest.raises(ValueError, match="ran out of data|degree mismatch"):
        read_alist(p)
    p.write_text("2 2\n1 1\n1 2\n1 1\n1\n1\n1\n1\n")
    with pytest.raises(ValueError, match="exceeds declared maximum"):
        read_alist(p)
    # adjacency lists that disagree between the row and column views
    p.write_text("2 2\n1 1\n1 1\n1 1\n1\n1\n1\n2\n")
    with pytest.raises(ValueError, match="disagree"):
        read_alist(p)
    p.write_text("2 2\n1 1\n1 1\n1 1\n3\n1\n1\n2\n")
    with pytest.raises(ValueError, match="out of range"):
        read_alist(p)
    # column 0 lists no row, but its degree is 1
    p.write_text("2 2\n1 1\n1 1\n1 1\n0\n2\n1\n2\n")
    with pytest.raises(ValueError, match="column 0 degree mismatch"):
        read_alist(p)
    p.write_text("2 2\n1 1\n1 1\n1 1\n1\n2\n3\n2\n")
    with pytest.raises(ValueError, match="column index 3 out of range"):
        read_alist(p)
    p.write_text("2 2\n1 1\n1 1\n1 1\n1\n2\n0\n2\n")
    with pytest.raises(ValueError, match="row 0 degree mismatch"):
        read_alist(p)
    p.write_text("2 2\n1 1\n1 1\n1 1\nx\n1\n1\n2\n")
    with pytest.raises(ValueError, match="non-integer"):
        read_alist(p)
    # a valid file followed by one more token
    p.write_text("2 2\n1 1\n1 1\n1 1\n1\n2\n1\n2\n0\n")
    with pytest.raises(ValueError, match="data after"):
        read_alist(p)


def test_kv_roundtrip(tmp_path):
    p = tmp_path / "m.txt"
    pairs = {"n": 32, "k": 16, "label": "run a", "empty": ""}
    write_kv(pairs, p)
    got = read_kv(p)
    assert got == {"n": "32", "k": "16", "label": "run a", "empty": ""}
    # read_kv would cut these at the comment or split them across lines
    for value in ("run #1", "#1", "a\nb"):
        with pytest.raises(ValueError, match="does not read back"):
            write_kv({"label": value}, p)
    write_kv({"label": "a#b"}, p)
    assert read_kv(p) == {"label": "a#b"}


def test_kv_ignores_comments_and_blanks(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("# heading\n\na = 1\n  # indented comment\nb = two words \n")
    assert read_kv(p) == {"a": "1", "b": "two words"}
    # a # after whitespace begins a comment too; values once kept it
    p.write_text("out = bp.csv   # omit to print\ndir = runs/c32\t# tab\n"
                 "tag = a#b\nempty =  # nothing\n#k = v\n")
    assert read_kv(p) == {"out": "bp.csv", "dir": "runs/c32", "tag": "a#b",
                          "empty": ""}


def test_kv_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("novalue\n")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        read_kv(p)
    p.write_text("= 3\n")
    with pytest.raises(ValueError, match="empty key"):
        read_kv(p)
    p.write_text("a = 1\na = 2\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_kv(p)
