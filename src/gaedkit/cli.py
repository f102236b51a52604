"""Command-line front end: construct, simulate, verify, dmin.

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 construction
budget exhaustion.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from pathlib import Path

from .automorphisms import (ConstructionError, GeneralizedAutomorphism,
                            construct_code_with_automorphism,
                            verify_automorphism)
from .codes import LinearCode, min_distance
from .gf2 import BitMatrix, independent_rows, invert, rank
from .matio import (read_alist, read_dense, read_kv, write_alist, write_dense,
                    write_kv)
from .sweep import DecoderSpec, SweepConfig, format_records, run_sweep

_USAGE, _VALIDATION, _BUDGET = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse's default would be 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(_USAGE)


@lru_cache(maxsize=1)   # built on first use: in-process callers reuse it
def _build_parser() -> _Parser:
    p = _Parser(prog="gaedkit",
                description="Construct codes with designed automorphisms, "
                            "verify them, and run FER sweeps.")
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=_Parser)

    c = sub.add_parser("construct",
                       help="build a code with a sparse automorphism")
    c.add_argument("-n", type=int, required=True, help="code length")
    c.add_argument("-k", type=int, required=True, help="code dimension")
    c.add_argument("--delta", type=int, default=0,
                   help="nonzero entries of T beyond a permutation")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--max-resamples", type=int, default=200)
    c.add_argument("--out", required=True, help="output directory")

    s = sub.add_parser("simulate", help="run an FER sweep from a config file")
    s.add_argument("config", help="key = value configuration file")

    v = sub.add_parser("verify",
                       help="re-check the invariants of a construct output")
    v.add_argument("code_dir")

    d = sub.add_parser("dmin", help="minimum distance of a code given its PCM")
    d.add_argument("matrix", help="parity-check matrix file, alist if it "
                                  "ends in .alist, else dense")
    return p


def _cmd_construct(args, parser: _Parser) -> int:
    if not 0 < args.k < args.n:
        parser.error(f"need 0 < k < n, got n={args.n} k={args.k}")
    if args.delta < 0:
        parser.error("delta must be non-negative")
    if args.delta > args.n * (args.n - 1):
        return _fail(f"--delta={args.delta} impossible for n={args.n}: T has "
                     f"at most n*(n-1) = {args.n * (args.n - 1)} entries "
                     f"beyond a permutation")
    if args.max_resamples < 1:
        return _fail(f"--max-resamples must be at least 1, "
                     f"got {args.max_resamples}")
    if args.seed < 0:
        return _fail(f"--seed must be non-negative, got {args.seed}")
    try:
        res = construct_code_with_automorphism(
            args.n, args.k, delta_obj=args.delta, seed=args.seed,
            max_resamples=args.max_resamples)
    except ConstructionError as e:
        print(f"construction failed: {e}", file=sys.stderr)
        return _BUDGET
    except ValueError as e:
        return _fail(str(e))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    code, aut = res.code, res.aut
    # a zero column of H is a coordinate no check sees: dmin is then 1
    unchecked = [j for j, col in enumerate(code.h.transpose()) if not col]
    write_dense(code.h, out / "H.txt")
    write_alist(code.h, out / "H.alist")
    write_dense(aut.matrix, out / "T.txt")
    write_dense(aut.inverse, out / "T_inv.txt")
    write_dense(res.t_squared, out / "T_sq.txt")
    write_dense(res.ccm.basis, out / "A.txt")
    write_kv({
        "n": args.n, "k": args.k, "delta": args.delta, "seed": args.seed,
        "code_n": code.n, "code_k": code.k,
        "omega_t": aut.omega, "omega_t_inv": aut.inverse.weight,
        "omega_t_sq": res.t_squared.weight, "delta_t": aut.delta,
        "pre_reduction_omega": res.pre_reduction_omega,
        "attempts": res.attempts,
        "ordering_failures": res.ordering_failures,
        "reduction_failures": res.reduction_failures,
        "frozen_positions": ",".join(map(str, res.frozen_positions)),
        "unchecked_positions": ",".join(map(str, unchecked)),
    }, out / "manifest.txt")
    print(f"constructed ({code.n},{code.k}) code in {out}")
    print(f"omega(T)={aut.omega} omega(T^-1)={aut.inverse.weight} "
          f"omega(T^2)={res.t_squared.weight} delta(T)={aut.delta}")
    print(f"attempts={res.attempts} ordering_failures={res.ordering_failures} "
          f"reduction_failures={res.reduction_failures} "
          f"dropped_positions={len(res.frozen_positions)} "
          f"unchecked_positions={len(unchecked)}")
    return 0


def _read_matrix(path: Path) -> BitMatrix:
    return read_alist(path) if path.suffix == ".alist" else read_dense(path)


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return _VALIDATION


_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False,
               "yes": True, "no": False}


def _bool(word: str) -> bool:
    return _BOOL_WORDS[word.lower()]


_EXPECTED = {int: "an integer", float: "a number",
             _bool: f"one of {', '.join(_BOOL_WORDS)}"}


def _typed_key(text: str, key: str, parse, listed: bool = False):
    """Parse one typed config value, or a comma list of them if listed.

    parse is int, float or _bool; a value it rejects raises ValueError
    naming the key.
    """
    try:
        if listed:
            return tuple(parse(x) for x in text.split(","))
        return parse(text)
    except (KeyError, ValueError):
        expected = _EXPECTED[parse]
        if listed:
            expected = f"a comma-separated list of values, each {expected}"
        raise ValueError(f"{key} must be {expected}, got {text!r}") from None


# simulate key -> (DecoderSpec or SweepConfig, field, parse, listed), in parse
# order. Only keys in the file are passed: defaults live in the dataclasses.
_SIM_FIELDS = {
    "iterations": (DecoderSpec, "iterations", int, False),
    "normalization": (DecoderSpec, "normalization", float, False),
    "ell": (DecoderSpec, "ell", int, False),
    "osd_order": (DecoderSpec, "osd_order", int, False),
    "gaed_powers": (DecoderSpec, "powers", int, True),
    "ebn0_db": (SweepConfig, "ebn0_db", float, True),
    "min_frame_errors": (SweepConfig, "min_frame_errors", int, False),
    "max_frames": (SweepConfig, "max_frames", int, False),
    "seed": (SweepConfig, "seed", int, False),
    "workers": (SweepConfig, "workers", int, False),
    "random_codewords": (SweepConfig, "random_codewords", _bool, False),
}
_SIM_KEYS = {"dir", "h", "t", "decoder", "out", *_SIM_FIELDS}


def _sim_fields(raw: dict, owner) -> dict:
    """The fields of owner that raw sets, parsed."""
    return {field: _typed_key(raw[key], key, parse, listed)
            for key, (cls, field, parse, listed) in _SIM_FIELDS.items()
            if cls is owner and key in raw}


def _cmd_simulate(args) -> int:
    try:
        raw = read_kv(args.config)
    except (OSError, ValueError) as e:
        return _fail(str(e))
    unknown = set(raw) - _SIM_KEYS
    if unknown:
        return _fail(f"unknown config keys: {', '.join(sorted(unknown))}")
    clash = sorted({"h", "t"} & set(raw)) if "dir" in raw else []
    if clash:
        return _fail(f"dir= excludes {' and '.join(k + '=' for k in clash)}")
    try:
        base = Path(args.config).resolve().parent
        if "dir" in raw:
            code_dir = (base / raw["dir"]).resolve()
            h = _read_matrix(code_dir / "H.txt")
            t_path = code_dir / "T.txt"
            if not t_path.exists():
                t_path = None
        elif "h" in raw:
            h = _read_matrix((base / raw["h"]).resolve())
            t_path = (base / raw["t"]).resolve() if "t" in raw else None
        else:
            return _fail("config needs either dir= or h=")
        t = None if t_path is None else _read_matrix(t_path)
        code = LinearCode(h)
        try:
            spec = DecoderSpec(kind=raw.get("decoder", ""),
                               **_sim_fields(raw, DecoderSpec))
        except ValueError as e:
            # the one field whose config key is not its name
            if str(e).startswith("powers "):
                raise ValueError(f"gaed_{e}") from None
            raise
        # run_sweep checks what the decoder kind needs of it
        aut = None
        if t is not None:
            try:
                aut = GeneralizedAutomorphism.from_matrix(t)
            except ValueError as e:
                raise ValueError(f"{t_path}: {e}") from None
        if "ebn0_db" not in raw:
            return _fail("config needs ebn0_db=")
        cfg = SweepConfig(**_sim_fields(raw, SweepConfig))
        out = (base / raw["out"]).resolve() if "out" in raw else None
    except (OSError, ValueError, KeyError) as e:
        return _fail(str(e))
    # a bad output path must fail before the sweep, not throw it away after
    if out is not None and not out.parent.is_dir():
        return _fail(f"output directory {out.parent} does not exist")
    if out is not None and out.is_dir():
        return _fail(f"output path {out} is a directory")
    try:
        records = run_sweep(code, spec, cfg, aut=aut)
    except ValueError as e:
        # bad inputs that only building the decoder finds, before any frame
        # is decoded: e.g. a gaed T that is no automorphism of the code, or
        # a dual code too small for ell
        return _fail(str(e))
    text = format_records(records)
    if out is not None:
        out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


# the n x n matrices that construct writes beside H
_SQUARE_FILES = ("T.txt", "T_inv.txt", "T_sq.txt", "A.txt")


def _cmd_verify(args) -> int:
    d = Path(args.code_dir)
    try:
        manifest = read_kv(d / "manifest.txt")
        try:
            declared = {key: _typed_key(manifest.get(key, "-1"), key, int)
                        for key in ("omega_t", "omega_t_inv", "omega_t_sq",
                                    "delta_t")}
        except ValueError as e:
            raise ValueError(f"{d / 'manifest.txt'}: {e}") from None
        h = read_dense(d / "H.txt")
        h_alist = read_alist(d / "H.alist")
        square = [read_dense(d / name) for name in _SQUARE_FILES]
        code = LinearCode(h)
    except (OSError, ValueError, KeyError) as e:
        return _fail(str(e))
    for name, m in zip(_SQUARE_FILES, square):
        if m.shape != (code.n, code.n):
            return _fail(f"{d / name}: shape {m.shape} does not match the "
                         f"code's {(code.n, code.n)}")
    t, t_inv, t_sq, a = square
    r = code.n - code.k
    eye = BitMatrix.identity(code.n)
    normal = code.h @ a
    checks = [
        ("pcm_formats_agree", h == h_alist),
        ("automorphism_t", verify_automorphism(code, t)),
        ("automorphism_t_inv", verify_automorphism(code, t_inv)),
        ("automorphism_t_sq", verify_automorphism(code, t_sq)),
        ("t_inv_matches", t @ t_inv == eye),
        ("t_sq_matches", t_sq == t @ t),
        ("basis_normalizes_pcm",
         list(normal) == [1 << i for i in range(r)]),
        ("basis_inverse_top_is_pcm",
         rank(a) == code.n and list(invert(a))[:r] == list(code.h)),
        ("omega_t", t.weight == declared["omega_t"]),
        ("omega_t_inv", t_inv.weight == declared["omega_t_inv"]),
        ("omega_t_sq", t_sq.weight == declared["omega_t_sq"]),
        ("delta_t", t.weight - code.n == declared["delta_t"]),
    ]
    ok = True
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'} {name}")
        ok &= passed
    return 0 if ok else _VALIDATION


def _cmd_dmin(args) -> int:
    path = Path(args.matrix)
    try:
        m = _read_matrix(path)
    except (OSError, ValueError) as e:
        return _fail(str(e))
    # drop dependent rows so redundant PCMs are accepted
    kept = m.take_rows(list(independent_rows(m)))
    if not kept.rows or kept.rows >= m.cols:
        return _fail("matrix does not define a code with 0 < k < n")
    try:
        d = min_distance(LinearCode(kept))
    except ValueError as e:
        return _fail(str(e))
    print(d)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "construct":
        return _cmd_construct(args, parser)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_dmin(args)


if __name__ == "__main__":
    sys.exit(main())
