"""Layer spans for the traced benchmark run, recorded from outside gaedkit.

`Tracer.install()` replaces gaedkit's public functions and methods with
wrappers that record a span (name, start, end, parent) per call and update
exact counts from the call's arguments and return value. A function is
replaced under every name it is looked up by: `rank`, for example, is
bound in `gf2`, `codes`, `decoders`, `automorphisms` and `cli`, and each
module calls its own binding. Classes are never replaced, only their
methods, so `isinstance` checks and classmethods keep working.

Spans stay in memory; `uninstall()` restores the originals, and the
caller writes the spans out when the run ends.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import gaedkit

MODULES = ("channel", "decoders", "sweep", "codes", "frobenius", "gf2poly",
           "gf2", "automorphisms", "matio", "cli")


def _bp(counts, args, kwargs, out):
    counts["decoders.bp_min_sum_batch.frame_iters"] += int(out[2].sum())
    counts["bp_valid"] += int(out[1].sum())
    counts["bp_frames"] += len(out[1])


def _gaed(counts, args, kwargs, out):
    counts["decoders.GaedEnsemble.decode_batch.nonzero_path_wins"] += \
        int((out[3] != 0).sum())


def _awgn(counts, args, kwargs, out):
    counts["channel.awgn_llr_batch.frames"] += out.shape[0]


def _dual_search(counts, args, kwargs, out):
    code = args[0]
    r = code.n - code.k
    if r <= 24:  # the exhaustive branch enumerates every dual word
        counts["codes.low_weight_dual_search.words_enumerated"] += 1 << r


def _construct(counts, args, kwargs, out):
    counts["automorphisms.construct_code_with_automorphism.attempts"] += \
        out.attempts


def _file_bytes(index):
    def count(counts, args, kwargs, out):
        counts["matio.bytes"] += os.path.getsize(args[index])
    return count


# (module, attribute or Class.method, span name, counter)
TARGETS = (
    ("decoders", "bp_min_sum_batch", "decoders.bp_min_sum_batch", _bp),
    ("decoders", "PreprocessPlan.apply", "decoders.PreprocessPlan.apply", None),
    ("decoders", "GaedEnsemble.decode_batch",
     "decoders.GaedEnsemble.decode_batch", _gaed),
    ("decoders", "osd_decode", "decoders.osd_decode", None),
    ("decoders", "stack_redundant_pcm", "decoders.stack_redundant_pcm", None),
    ("channel", "awgn_llr_batch", "channel.awgn_llr_batch", _awgn),
    ("sweep", "run_sweep", "sweep.run_sweep", None),
    ("codes", "low_weight_dual_search", "codes.low_weight_dual_search",
     _dual_search),
    ("codes", "optimize_pcm", "codes.optimize_pcm", None),
    ("codes", "reduce_zero_columns", "codes.reduce_zero_columns", None),
    ("codes", "min_distance", "codes.min_distance", None),
    ("frobenius", "frobenius_normal_form", "frobenius.frobenius_normal_form",
     None),
    ("gf2poly", "factor", "gf2poly.factor", None),
    ("gf2", "invert", "gf2.invert", None),
    ("gf2", "rank", "gf2.rank", None),
    ("automorphisms", "construct_code_with_automorphism",
     "automorphisms.construct_code_with_automorphism", _construct),
    ("automorphisms", "sample_sparse_invertible",
     "automorphisms.sample_sparse_invertible", None),
    ("automorphisms", "verify_automorphism", "automorphisms.verify_automorphism",
     None),
    ("automorphisms", "compute_ccm", "automorphisms.compute_ccm", None),
    ("matio", "write_dense", "matio.write", _file_bytes(1)),
    ("matio", "write_alist", "matio.write", _file_bytes(1)),
    ("matio", "write_kv", "matio.write", _file_bytes(1)),
    ("matio", "read_dense", "matio.read", _file_bytes(0)),
    ("matio", "read_alist", "matio.read", _file_bytes(0)),
    ("matio", "read_kv", "matio.read", _file_bytes(0)),
    # one span per subcommand: cli.construct, cli.verify, cli.dmin, ...
    ("cli", "main", lambda args, kwargs: f"cli.{args[0][0]}", None),
)


class Tracer:
    """In-memory span recorder with exact counters."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[sid] = (label, start, clock(), parent)
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def install(self) -> None:
        modules = [gaedkit] + [getattr(gaedkit, m) for m in MODULES]
        for mod_name, attr, name, counter in TARGETS:
            owner = getattr(gaedkit, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(fn, name, counter))
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(fn, name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, key, wrapper)

    def _set(self, obj, key, value) -> None:
        self._undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def uninstall(self) -> None:
        for obj, key, value in reversed(self._undo):
            setattr(obj, key, value)
        self._undo.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Self time and call count per span name, plus the counters.

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: defaultdict[str, float] = defaultdict(int)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[f"{name}.s"] += end - start - inner
            out[f"{name}.calls"] += 1
        out.update(self.counts)
        bp_frames = out.pop("bp_frames", 0)
        bp_valid = out.pop("bp_valid", 0)
        if bp_frames:
            out["decoders.bp_min_sum_batch.valid_share"] = bp_valid / bp_frames
        calls = out.get("automorphisms.construct_code_with_automorphism.calls")
        if calls:
            out["automorphisms.construct_code_with_automorphism.useful_share"] = \
                calls / out["automorphisms.construct_code_with_automorphism.attempts"]
        return dict(out)
