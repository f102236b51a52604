"""Command-line interface, driven in-process through main(argv)."""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaedkit.automorphisms import verify_automorphism
from gaedkit import cli
from gaedkit.cli import main
from gaedkit.codes import LinearCode
from gaedkit.gf2 import BitMatrix
from gaedkit.matio import (read_dense, read_kv, write_alist, write_dense,
                           write_kv)

HAMMING_74_H = BitMatrix.from_rows([
    [1, 0, 1, 0, 1, 0, 1],
    [0, 1, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
])


def construct(tmp_path, seed=0, extra=()):
    out = tmp_path / f"code_s{seed}"
    rc = main(["construct", "-n", "16", "-k", "8", "--delta", "4",
               "--seed", str(seed), "--out", str(out), *extra])
    return rc, out


def test_construct_then_verify_roundtrip(tmp_path, capsys):
    rc, out = construct(tmp_path)
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "constructed (" in stdout
    for name in ("H.txt", "H.alist", "T.txt", "T_inv.txt", "T_sq.txt",
                 "A.txt", "manifest.txt"):
        assert (out / name).exists()
    manifest = read_kv(out / "manifest.txt")
    assert manifest["k"] == "8"
    assert manifest["pre_reduction_omega"] == "20"
    assert int(manifest["omega_t"]) - int(manifest["code_n"]) == \
        int(manifest["delta_t"])

    rc = main(["verify", str(out)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert len(lines) == 12
    assert all(ln.startswith("PASS ") for ln in lines)


def cli_calls(tmp_path, capsys, fresh):
    """Exit code, stdout and stderr of construct, a usage error, verify,
    dmin and construct again, all in this process; with fresh, every call
    builds its own parser."""
    out = str(tmp_path / "code")
    calls = [["construct", "-n", "16", "-k", "8", "--delta", "4",
              "--out", out],
             ["construct", "-n", "16", "--out", out],   # -k missing: exit 1
             ["verify", out], ["dmin", str(Path(out) / "H.txt")],
             ["construct", "-n", "16", "-k", "8", "--delta", "4", "--seed",
              "1", "--out", out]]
    seen = []
    for argv in calls:
        if fresh:
            cli._build_parser.cache_clear()
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
        seen.append((rc, *capsys.readouterr()))
    return seen


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    fresh = cli_calls(tmp_path, capsys, fresh=True)
    assert [rc for rc, _, _ in fresh] == [0, 1, 0, 0, 0]
    assert "the following arguments are required: -k" in fresh[1][2]
    assert cli_calls(tmp_path, capsys, fresh=False) == fresh
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("seed,unchecked", [(0, "4"), (9, "")])
def test_construct_reports_zero_columns_of_h(tmp_path, capsys, seed,
                                             unchecked):
    rc, out = construct(tmp_path, seed=seed)
    assert rc == 0
    count = len(unchecked.split(",")) if unchecked else 0
    third = capsys.readouterr().out.splitlines()[2]
    assert third.endswith(f" unchecked_positions={count}")
    assert read_kv(out / "manifest.txt")["unchecked_positions"] == unchecked
    h = read_dense(out / "H.txt")
    zero_cols = [j for j in range(h.cols) if not any((r >> j) & 1 for r in h)]
    assert ",".join(map(str, zero_cols)) == unchecked


def test_verify_catches_tampered_t(tmp_path, capsys):
    rc, out = construct(tmp_path)
    assert rc == 0
    t = read_dense(out / "T.txt")
    rows = list(t)
    rows[0] ^= 0b11 if rows[0] & 1 else 0b1   # flip a bit of the first row
    write_dense(BitMatrix(rows, t.cols), out / "T.txt")
    capsys.readouterr()
    rc = main(["verify", str(out)])
    report = capsys.readouterr().out
    assert rc == 2
    assert "FAIL" in report


def test_verify_rejects_non_integer_manifest_weights(tmp_path, capsys):
    rc, out = construct(tmp_path)
    assert rc == 0
    good = read_kv(out / "manifest.txt")
    for key in ("omega_t", "omega_t_inv", "omega_t_sq", "delta_t"):
        write_kv({**good, key: "twelve"}, out / "manifest.txt")
        capsys.readouterr()
        rc = main(["verify", str(out)])
        captured = capsys.readouterr()
        assert rc == 2, key
        assert "manifest.txt" in captured.err and key in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("name", ["T.txt", "T_inv.txt", "T_sq.txt", "A.txt"])
def test_verify_rejects_matrix_of_the_wrong_size(tmp_path, capsys, name):
    rc, out = construct(tmp_path)
    assert rc == 0
    good = read_dense(out / name)
    for shape in ((15, 15), (3, 4)):
        write_dense(BitMatrix.identity(shape[1]).take_rows(range(shape[0])),
                    out / name)
        capsys.readouterr()
        assert main(["verify", str(out)]) == 2, shape
        err = capsys.readouterr().err
        assert name in err and str(shape) in err and "(16, 16)" in err, err
        assert "Traceback" not in err
    write_dense(good, out / name)
    assert main(["verify", str(out)]) == 0


def test_verify_missing_dir(tmp_path, capsys):
    rc = main(["verify", str(tmp_path / "nowhere")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_construct_rejects_bad_dimensions(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["construct", "-n", "8", "-k", "8", "--out", str(tmp_path / "x")])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["construct", "-n", "8", "-k", "4", "--delta", "-2",
              "--out", str(tmp_path / "x")])
    assert e.value.code == 1
    capsys.readouterr()


def test_construct_impossible_delta_is_validation_error(tmp_path, capsys):
    rc = main(["construct", "-n", "4", "-k", "2", "--delta", "99",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "impossible" in capsys.readouterr().err


def test_construct_names_delta_above_its_bound(tmp_path, capsys):
    out = tmp_path / "c8"
    rc = main(["construct", "-n", "8", "-k", "4", "--delta", "100",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--delta" in err and "n*(n-1) = 56" in err, err
    assert "omega_obj" not in err
    assert not out.exists()


def test_construct_rejects_bad_budget_and_seed(tmp_path, capsys):
    for flag, value in (("--max-resamples", "0"), ("--max-resamples", "-3"),
                        ("--seed", "-1")):
        out = tmp_path / "bad"
        rc = main(["construct", "-n", "8", "-k", "4", flag, value,
                   "--out", str(out)])
        assert rc == 2, flag
        assert f"{flag} must be" in capsys.readouterr().err
        assert not out.exists()


def test_construct_budget_exhaustion(tmp_path, capsys):
    # at (32, 16, delta 10) this seed needs a second attempt
    out = tmp_path / "tight"
    rc = main(["construct", "-n", "32", "-k", "16", "--delta", "10",
               "--seed", "2", "--max-resamples", "1", "--out", str(out)])
    assert rc == 3
    assert "construction failed" in capsys.readouterr().err
    assert not out.exists()


def test_usage_errors_exit_one(capsys):
    for argv in (["bogus"], ["construct"], ["construct", "-n", "8"], []):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 1
    capsys.readouterr()


def test_dmin_hamming(tmp_path, capsys):
    dense = tmp_path / "h.txt"
    alist = tmp_path / "h.alist"
    write_dense(HAMMING_74_H, dense)
    write_alist(HAMMING_74_H, alist)
    assert main(["dmin", str(dense)]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["dmin", str(alist)]) == 0
    assert capsys.readouterr().out.strip() == "3"
    # the suffix alone picks the format: there is no --format option
    with pytest.raises(SystemExit) as e:
        main(["dmin", str(dense), "--format", "dense"])
    assert e.value.code == 1
    capsys.readouterr()


def test_dmin_accepts_redundant_rows(tmp_path, capsys):
    rows = list(HAMMING_74_H)
    rows.append(rows[0] ^ rows[1])
    write_dense(BitMatrix(rows, 7), tmp_path / "r.txt")
    assert main(["dmin", str(tmp_path / "r.txt")]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_dmin_errors(tmp_path, capsys):
    assert main(["dmin", str(tmp_path / "missing.txt")]) == 2
    full = tmp_path / "full.txt"
    write_dense(BitMatrix.identity(3), full)
    assert main(["dmin", str(full)]) == 2
    capsys.readouterr()
    # k = n - k = 30: past both enumeration limits
    rng = np.random.default_rng(5)
    big = BitMatrix([1 << i | int(rng.integers(1 << 30)) << 30
                     for i in range(30)], 60)
    write_dense(big, tmp_path / "big.txt")
    assert main(["dmin", str(tmp_path / "big.txt")]) == 2
    assert "too large" in capsys.readouterr().err


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(fmt=st.sampled_from(["dense", "alist"]), truncate=st.booleans(),
       at=st.floats(0.0, 1.0, exclude_max=True),
       char=st.sampled_from(["x", "#", "."]))
def test_malformed_matrix_files_exit_two(fmt, truncate, at, char):
    # Truncation drops at least one non-blank character; insertion adds a
    # character neither format allows. Neither leaves a readable matrix.
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        name = "H.alist" if fmt == "alist" else "H.txt"
        path = tmp / name
        (write_alist if fmt == "alist" else write_dense)(HAMMING_74_H, path)
        text = path.read_text()
        if truncate:
            text = text[:int(at * len(text.rstrip()))]
        else:
            pos = int(at * (len(text) + 1))
            text = text[:pos] + char + text[pos:]
        path.write_text(text)
        (tmp / "sim.cfg").write_text(
            f"h = {name}\ndecoder = bp\nebn0_db = 1.0\nmax_frames = 64\n")
        for argv in (["dmin", str(path)], ["simulate", str(tmp / "sim.cfg")]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()) as out:
                rc = main(argv)
            assert rc == 2, (argv[0], text)
            assert name in err.getvalue(), (argv[0], err.getvalue())
            assert "Traceback" not in err.getvalue()
            assert out.getvalue() == ""


def write_sim_config(path, lines):
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def no_frames(monkeypatch):
    """Make drawing a sweep frame fail, for configs that must be refused
    before any frame is decoded."""
    import gaedkit.sweep as sweep

    def draw(*args, **kwargs):
        raise AssertionError("a frame was drawn before the inputs were checked")

    monkeypatch.setattr(sweep, "awgn_llr_batch", draw)


def test_simulate_bp_to_stdout(tmp_path, capsys):
    write_dense(HAMMING_74_H, tmp_path / "H.txt")
    cfgf = tmp_path / "sim.cfg"
    write_sim_config(cfgf, [
        "h = H.txt", "decoder = bp", "iterations = 5",
        "ebn0_db = 2.0,4.0", "min_frame_errors = 20", "max_frames = 2048",
        "seed = 5",
    ])
    rc = main(["simulate", str(cfgf)])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "ebno_db,frames,frame_errors,bit_errors,fer,ci95,elapsed_s"
    assert len(lines) == 3
    assert lines[1].startswith("2,") and lines[2].startswith("4,")
    # the same H read from a code directory without T.txt: bp needs no T
    (tmp_path / "no_t").mkdir()
    write_dense(HAMMING_74_H, tmp_path / "no_t" / "H.txt")
    # a comment after the value, as in the README's example, is no part
    # of the path
    write_sim_config(cfgf, [
        "dir = no_t          # a code directory", "decoder = bp",
        "iterations = 5", "ebn0_db = 2.0,4.0", "min_frame_errors = 20", "max_frames = 2048",
        "seed = 5",
    ])
    assert main(["simulate", str(cfgf)]) == 0
    from_dir = capsys.readouterr().out.strip().splitlines()
    assert [ln.rsplit(",", 1)[0] for ln in from_dir] == \
        [ln.rsplit(",", 1)[0] for ln in lines]


def test_simulate_writes_file_and_is_count_deterministic(tmp_path, capsys):
    write_dense(HAMMING_74_H, tmp_path / "H.txt")
    cfgf = tmp_path / "sim.cfg"
    write_sim_config(cfgf, [
        "h = H.txt", "decoder = bp", "iterations = 5", "ebn0_db = 3.0",
        "min_frame_errors = 20", "max_frames = 2048", "seed = 9",
        "out = run.csv   # omit to print the CSV to stdout",
    ])
    assert main(["simulate", str(cfgf)]) == 0
    first = (tmp_path / "run.csv").read_text()
    assert main(["simulate", str(cfgf)]) == 0
    second = (tmp_path / "run.csv").read_text()
    capsys.readouterr()
    # all columns except the honest wall-clock one must repeat exactly
    strip = [ln.rsplit(",", 1)[0] for ln in first.strip().splitlines()]
    strip2 = [ln.rsplit(",", 1)[0] for ln in second.strip().splitlines()]
    assert strip == strip2


def test_readme_simulate_example_parses():
    # the documented example config, read as simulate reads it
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("```ini\n", 1)[1].split("```", 1)[0]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.cfg"
        path.write_text(block)
        raw = read_kv(path)
    assert set(raw) <= cli._SIM_KEYS
    for key, (_, _, parse, listed) in cli._SIM_FIELDS.items():
        if key in raw:
            cli._typed_key(raw[key], key, parse, listed)
    assert (raw["dir"], raw["decoder"], raw["out"]) == \
        ("runs/c32", "gaed", "gaed.csv")


def test_simulate_gaed_from_construct_dir(tmp_path, capsys):
    rc, out = construct(tmp_path)
    assert rc == 0
    capsys.readouterr()
    cfgf = tmp_path / "gaed.cfg"
    write_sim_config(cfgf, [
        f"dir = {out.name}", "decoder = gaed", "iterations = 5",
        "ebn0_db = 3.0", "min_frame_errors = 10", "max_frames = 1024",
    ])
    assert main(["simulate", str(cfgf)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2


# every simulate key besides the paths, decoder and ebn0_db, at the default
# the README states for it
README_SIM_DEFAULTS = [
    "iterations = 20", "normalization = 0.75", "ell = 3", "osd_order = 3", "gaed_powers = 0,1,-1",
    "min_frame_errors = 300", "max_frames = 1000000", "seed = 0",
    "workers = 1", "random_codewords = false",
]


@pytest.mark.parametrize("decoder", ["bp", "gaed"])
def test_simulate_adds_no_defaults_of_its_own(tmp_path, capsys, decoder):
    rc, out = construct(tmp_path)
    assert rc == 0
    minimal = [f"h = {out.name}/H.txt", f"decoder = {decoder}",
               "ebn0_db = 2.0"]
    if decoder == "gaed":
        minimal.append(f"t = {out.name}/T.txt")
    counts = []
    for lines in (minimal, minimal + README_SIM_DEFAULTS):
        cfgf = tmp_path / "sim.cfg"
        write_sim_config(cfgf, lines)
        capsys.readouterr()
        assert main(["simulate", str(cfgf)]) == 0
        counts.append([ln.rsplit(",", 1)[0]
                       for ln in capsys.readouterr().out.splitlines()])
    assert counts[0] == counts[1]
    assert len(counts[0]) == 2


def test_simulate_rejects_non_automorphism_t(tmp_path, capsys, no_frames):
    rc, out = construct(tmp_path)
    assert rc == 0
    h = read_dense(out / "H.txt")
    code = LinearCode.from_pcm(h)
    rng = np.random.default_rng(0)
    while True:
        cand = BitMatrix.random_invertible(h.cols, rng)
        if not verify_automorphism(code, cand):
            break
    write_dense(cand, tmp_path / "T_bad.txt")
    cfgf = tmp_path / "bad.cfg"
    write_sim_config(cfgf, [
        f"h = {out.name}/H.txt", "decoder = gaed", "t = T_bad.txt",
        "ebn0_db = 3.0", "min_frame_errors = 5", "max_frames = 512",
    ])
    rc = main(["simulate", str(cfgf)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "not an automorphism" in err
    assert "Traceback" not in err


def test_simulate_rejects_singular_t(tmp_path, capsys, no_frames):
    write_dense(HAMMING_74_H, tmp_path / "H.txt")
    write_dense(BitMatrix.from_rows([[1] + [0] * 6] * 7),
                tmp_path / "T_sing.txt")
    cfgf = tmp_path / "sing.cfg"
    # a given T must be invertible whatever the decoder
    for decoder in ("gaed", "bp"):
        write_sim_config(cfgf, [
            "h = H.txt", f"decoder = {decoder}", "t = T_sing.txt",
            "ebn0_db = 3.0",
        ])
        rc = main(["simulate", str(cfgf)])
        assert rc == 2, decoder
        err = capsys.readouterr().err
        assert "singular" in err, decoder
        assert "Traceback" not in err


def test_simulate_names_the_t_file(tmp_path, capsys, no_frames):
    rc, out = construct(tmp_path)
    assert rc == 0
    write_dense(BitMatrix.identity(4).take_rows(range(3)), tmp_path / "T34.txt")
    cfgf = tmp_path / "t.cfg"
    write_sim_config(cfgf, [f"h = {out.name}/H.txt", "decoder = gaed",
                            "t = T34.txt", "ebn0_db = 3.0"])
    capsys.readouterr()
    assert main(["simulate", str(cfgf)]) == 2
    err = capsys.readouterr().err
    t34 = (tmp_path / "T34.txt").resolve()
    assert f"{t34}: inverse requires a square matrix" in err
    assert "Traceback" not in err
    # a singular T.txt read through dir=
    write_dense(BitMatrix.from_rows([[1] + [0] * 15] * 16), out / "T.txt")
    write_sim_config(cfgf, [f"dir = {out.name}", "decoder = gaed",
                            "ebn0_db = 3.0"])
    assert main(["simulate", str(cfgf)]) == 2
    err = capsys.readouterr().err
    assert f"{(out / 'T.txt').resolve()}: matrix is singular" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("decoder", ["bp", "gaed", "rr", "osd"])
def test_simulate_rejects_t_of_the_wrong_size(tmp_path, capsys, no_frames,
                                              decoder):
    write_dense(HAMMING_74_H, tmp_path / "H.txt")
    write_dense(BitMatrix.identity(9), tmp_path / "T9.txt")
    cfgf = tmp_path / "size.cfg"
    # ell = 2 fits the (7,4) dual, so rr has nothing else to refuse
    write_sim_config(cfgf, ["h = H.txt", f"decoder = {decoder}", "ell = 2",
                            "t = T9.txt", "ebn0_db = 3.0"])
    assert main(["simulate", str(cfgf)]) == 2
    err = capsys.readouterr().err
    assert "automorphism size does not match the code" in err
    assert "Traceback" not in err


def test_simulate_config_validation(tmp_path, capsys, no_frames):
    write_dense(HAMMING_74_H, tmp_path / "H.txt")
    # a code directory without T.txt: bp runs, gaed has no automorphism
    (tmp_path / "no_t").mkdir()
    write_dense(HAMMING_74_H, tmp_path / "no_t" / "H.txt")
    cases = [
        (["h = H.txt", "decoder = bp", "ebn0_db = 1.0", "wat = 7"],
         "unknown config keys"),
        (["decoder = bp", "ebn0_db = 1.0"], "dir= or h="),
        (["h = H.txt", "ebn0_db = 1.0"], "decoder must be"),
        (["h = H.txt", "decoder = bp"], "needs ebn0_db"),
        (["h = H.txt", "decoder = gaed", "ebn0_db = 1.0"],
         "need an automorphism"),
        (["dir = no_t", "decoder = gaed", "ebn0_db = 1.0"],
         "need an automorphism"),
        (["h = H.txt", "decoder = bp", "ebn0_db = 1.0", "workers = 0"],
         "workers must be at least 1, got 0"),
        (["dir = c16", "h = nonexistent.txt", "t = missing.txt",
          "decoder = bp", "ebn0_db = 1.0"], "dir= excludes h= and t="),
        (["dir = c16", "t = missing.txt", "decoder = bp", "ebn0_db = 1.0"],
         "dir= excludes t="),
        (["h = H.txt", "decoder = bp", "ebn0_db = 2.0,1.0"],
         "strictly increasing"),
        (["h = H.txt", "decoder = bp", "ebn0_db = 3, nan"], "finite"),
        (["h = H.txt", "decoder = bp", "ebn0_db = 1.0, inf"], "finite"),
        (["h = H.txt", "decoder = bp", "ebn0_db = -inf"], "finite"),
        (["h = H.txt", "decoder = bp", "ebn0_db = 1.0",
          "random_codewords = maybe"],
         "random_codewords must be one of true, false, 1, 0, yes, no, "
         "got 'maybe'"),
        # BP always stops at its first codeword: the switch is gone
        (["h = H.txt", "decoder = bp", "ebn0_db = 1.0", "early_stop = true"],
         "unknown config keys: early_stop"),
        (["h = H.txt", "decoder = bp", "ebn0_db = 1.0", "iterations = ten"],
         "iterations must be an integer, got 'ten'"),
        (["h = H.txt", "decoder = bp", "ebn0_db = 1.0", "max_frames = 1e3"],
         "max_frames must be an integer, got '1e3'"),
        (["h = H.txt", "decoder = bp", "ebn0_db = 1.0",
          "normalization = high"], "normalization must be a number"),
        (["h = H.txt", "decoder = bp", "ebn0_db = 1.0,x"],
         "ebn0_db must be a comma-separated list of values, each a number, "
         "got '1.0,x'"),
        (["h = H.txt", "decoder = gaed", "ebn0_db = 1.0",
          "gaed_powers = 0,,1"],
         "gaed_powers must be a comma-separated list of values, each an "
         "integer, got '0,,1'"),
        (["h = H.txt", "decoder = gaed", "ebn0_db = 1.0",
          "gaed_powers = 0,0,1"],
         "gaed_powers must be distinct, got (0, 0, 1)"),
        (["h = missing.txt", "decoder = bp", "ebn0_db = 1.0"], ""),
    ]
    for lines, needle in cases:
        cfgf = tmp_path / "c.cfg"
        write_sim_config(cfgf, lines)
        rc = main(["simulate", str(cfgf)])
        err = capsys.readouterr().err
        assert rc == 2, lines
        assert needle in err, lines
        assert "Traceback" not in err, lines
    assert main(["simulate", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()


def test_simulate_checks_out_path_before_simulating(tmp_path, capsys,
                                                   monkeypatch):
    import gaedkit.cli as cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran before the output path was checked")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    write_dense(HAMMING_74_H, tmp_path / "H.txt")
    (tmp_path / "taken").mkdir()
    for out, needle in (("missing/run.csv", "does not exist"),
                        ("taken", "is a directory")):
        cfgf = tmp_path / "o.cfg"
        write_sim_config(cfgf, ["h = H.txt", "decoder = bp",
                                "ebn0_db = 1.0", f"out = {out}"])
        assert main(["simulate", str(cfgf)]) == 2
        err = capsys.readouterr().err
        assert needle in err and str(tmp_path / out.split("/")[0]) in err


def test_simulate_osd_and_rr(tmp_path, capsys):
    write_dense(HAMMING_74_H, tmp_path / "H.txt")
    for extra in (["decoder = osd", "osd_order = 2"],
                  ["decoder = rr", "ell = 2", "iterations = 5"]):
        cfgf = tmp_path / "k.cfg"
        write_sim_config(cfgf, [
            "h = H.txt", "ebn0_db = 4.0", "min_frame_errors = 5",
            "max_frames = 512", *extra,
        ])
        assert main(["simulate", str(cfgf)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2


def test_simulate_rr_with_too_small_dual_exits_two(tmp_path, capsys,
                                                  monkeypatch, no_frames):
    import gaedkit.sweep as sweep
    from gaedkit.codes import DualWordPool

    write_dense(HAMMING_74_H, tmp_path / "H.txt")
    cfgf = tmp_path / "rr.cfg"
    write_sim_config(cfgf, ["h = H.txt", "decoder = rr", "ell = 3",
                            "ebn0_db = 3.0"])
    # the (7,4) dual has 7 nonzero words, and ell = 3 needs 3 * 3 = 9
    assert main(["simulate", str(cfgf)]) == 2
    err = capsys.readouterr().err
    assert "ell=3" in err and "need" in err
    assert "Traceback" not in err
    # a pool that does not span the dual, as a random search can return
    a, b = HAMMING_74_H.row_bits(0), HAMMING_74_H.row_bits(1)
    thin = DualWordPool(tuple(sorted((a, b, a ^ b),
                                     key=lambda w: (w.bit_count(), w))), 7)
    monkeypatch.setattr(sweep, "low_weight_dual_search",
                        lambda *args, **kwargs: thin)
    write_sim_config(cfgf, ["h = H.txt", "decoder = rr", "ell = 1",
                            "ebn0_db = 3.0"])
    assert main(["simulate", str(cfgf)]) == 2
    err = capsys.readouterr().err
    assert "ell=1" in err and "span" in err
    assert "Traceback" not in err
