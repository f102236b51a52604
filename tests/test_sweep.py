"""Monte-Carlo sweep engine: determinism, stopping rules, CSV schema."""

import math
import pickle

import numpy as np
import pytest

from gaedkit.automorphisms import construct_code_with_automorphism
from gaedkit.channel import awgn_llr_batch
from gaedkit.codes import LinearCode, _correlation
from gaedkit.decoders import (BpConfig, DecodeOutcome, GaedEnsemble,
                              TannerGraph, bp_min_sum_batch, power_ensemble)
from gaedkit.gf2 import BitMatrix
from gaedkit.osd import osd_decode_batch
from gaedkit import codes, sweep
from gaedkit.sweep import (_CHUNKS_PER_ROUND, CSV_HEADER, DecoderSpec,
                           FerRecord, SweepConfig, _Runtime, format_records,
                           run_sweep, write_csv)

HAMMING_74_H = BitMatrix.from_rows([
    [1, 0, 1, 0, 1, 0, 1],
    [0, 1, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
])


def fake_timer():
    state = {"t": 0.0}

    def tick():
        state["t"] += 0.125
        return state["t"]

    return tick


def small_sweep_cfg(**kw):
    base = dict(ebn0_db=(2.0,), min_frame_errors=40, max_frames=4096, seed=5)
    base.update(kw)
    return SweepConfig(**base)


def test_decoder_spec_labels():
    assert DecoderSpec("bp", iterations=30).label == "BP-30"
    assert DecoderSpec("gaed", iterations=10).label == "GAED-3-BP-10"
    assert DecoderSpec("gaed", iterations=10,
                       powers=(-3, -2, -1, 0, 1, 2, 3)).label == "GAED-7-BP-10"
    assert DecoderSpec("rr", iterations=10, ell=3).label == "R-3-BP-10"
    assert DecoderSpec("osd", osd_order=3).label == "OSD-3"


def test_decoder_spec_validation():
    with pytest.raises(ValueError, match="unknown decoder"):
        DecoderSpec("viterbi")
    with pytest.raises(ValueError, match="iterations"):
        DecoderSpec("bp", iterations=0)
    with pytest.raises(ValueError, match="normalization"):
        DecoderSpec("bp", normalization=0.0)
    for bad in ("0.5", None, True, np.True_):
        with pytest.raises(ValueError, match="normalization must be a number"):
            DecoderSpec("bp", normalization=bad)
    with pytest.raises(ValueError, match="ell"):
        DecoderSpec("rr", ell=0)
    with pytest.raises(ValueError, match="osd_order"):
        DecoderSpec("osd", osd_order=-1)
    with pytest.raises(ValueError, match="powers"):
        DecoderSpec("gaed", powers=())
    # counts must be integers; numpy integers are integers
    for field in ("iterations", "ell", "osd_order"):
        for bad in (1.5, 2.0, "3", True, False):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                DecoderSpec("bp", **{field: bad})
        assert getattr(DecoderSpec("bp", **{field: np.int64(2)}), field) == 2
    for bad in ((0.5,), (0, 1.0), (True, False), (0, True)):
        with pytest.raises(ValueError, match="powers must be integers"):
            DecoderSpec("gaed", powers=bad)
    assert DecoderSpec("gaed", powers=(np.int64(0), 1)).label == \
        "GAED-2-BP-20"
    # a repeated path could only tie an earlier one, and ties go to it
    for bad in ((0, 0, 1), (1, -1, np.int64(1))):
        with pytest.raises(ValueError, match="powers must be distinct"):
            DecoderSpec("gaed", powers=bad)
    # powers follow ebn0_db's rule: a sequence, kept as a tuple so that the
    # frozen spec hashes
    for bad in (5, np.int64(5), "01", None):
        with pytest.raises(ValueError, match="powers must be a sequence"):
            DecoderSpec("gaed", powers=bad)
    for good in ([0, 1, -1], np.array([0, 1, -1]), iter((0, 1, -1))):
        spec = DecoderSpec("gaed", powers=good)
        assert isinstance(spec.powers, tuple) and spec.powers == (0, 1, -1)
        assert spec == DecoderSpec("gaed")
        assert hash(spec) == hash(DecoderSpec("gaed"))


def test_sweep_config_validation():
    with pytest.raises(ValueError, match="at least one"):
        SweepConfig(ebn0_db=())
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepConfig(ebn0_db=(1.0, 1.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepConfig(ebn0_db=(2.0, 1.0))
    for bad in ((3.0, float("nan")), (float("nan"),), (1.0, float("inf")),
                (float("-inf"), 1.0)):
        with pytest.raises(ValueError, match="finite"):
            SweepConfig(ebn0_db=bad)
    # "12" once became the points (1.0, 2.0); 4.0 raised a bare TypeError
    for bad in ("12", 4.0, np.float64(4.0)):
        with pytest.raises(ValueError, match="ebn0_db"):
            SweepConfig(ebn0_db=bad)
    with pytest.raises(ValueError, match="min_frame_errors"):
        SweepConfig(ebn0_db=(1.0,), min_frame_errors=0)
    with pytest.raises(ValueError, match="max_frames"):
        SweepConfig(ebn0_db=(1.0,), max_frames=0)
    with pytest.raises(ValueError, match="seed"):
        SweepConfig(ebn0_db=(1.0,), seed=-1)
    with pytest.raises(ValueError, match="workers"):
        SweepConfig(ebn0_db=(1.0,), workers=0)
    for field in ("min_frame_errors", "max_frames", "seed", "workers"):
        for bad in (1.5, 100.5, 2.0, "3", True, False):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                SweepConfig(ebn0_db=(1.0,), **{field: bad})
        cfg = SweepConfig(ebn0_db=(1.0,), **{field: np.int32(2)})
        assert getattr(cfg, field) == 2
    # "false" is a true string: the sweep once sent random codewords
    for bad in ("false", 0, 1, None):
        with pytest.raises(ValueError, match="random_codewords must be a bool"):
            SweepConfig(ebn0_db=(4.0,), random_codewords=bad)
    assert SweepConfig(ebn0_db=(4.0,), random_codewords=np.True_).random_codewords


def test_csv_format():
    records = [FerRecord(2.0, 4096, 123, 456, 123 / 4096,
                         1.96 * math.sqrt((123 / 4096) * (1 - 123 / 4096) / 4096),
                         1.5)]
    text = format_records(records)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert len(fields) == 7
    assert fields[0] == "2"
    assert fields[1] == "4096" and fields[2] == "123" and fields[3] == "456"
    assert fields[4] == "0.0300293"       # %.6g
    assert text.endswith("\n")


def test_sweep_counts_are_deterministic_and_fer_consistent():
    code = LinearCode.from_pcm(HAMMING_74_H)
    spec = DecoderSpec("bp", iterations=5)
    cfg = small_sweep_cfg()
    a = run_sweep(code, spec, cfg, timer=fake_timer())
    b = run_sweep(code, spec, cfg, timer=fake_timer())
    assert a == b                          # fake timer makes rows byte-stable
    rec = a[0]
    assert rec.frames >= 1
    assert rec.frame_errors >= cfg.min_frame_errors or rec.frames == cfg.max_frames
    assert rec.fer == rec.frame_errors / rec.frames
    assert rec.ci95 == pytest.approx(
        1.96 * math.sqrt(rec.fer * (1 - rec.fer) / rec.frames), abs=1e-15)
    assert rec.bit_errors >= rec.frame_errors
    assert format_records(a) == format_records(b)


def test_sweep_different_seeds_differ():
    code = LinearCode.from_pcm(HAMMING_74_H)
    spec = DecoderSpec("bp", iterations=5)
    a = run_sweep(code, spec, small_sweep_cfg(seed=5), timer=fake_timer())
    b = run_sweep(code, spec, small_sweep_cfg(seed=6), timer=fake_timer())
    assert (a[0].frames, a[0].frame_errors, a[0].bit_errors) != \
        (b[0].frames, b[0].frame_errors, b[0].bit_errors)


@pytest.mark.parametrize("random_codewords", [False, True])
@pytest.mark.parametrize("kind", ["bp", "gaed", "rr", "osd"])
def test_sweep_worker_count_does_not_change_counts(kind, random_codewords):
    res = construct_code_with_automorphism(16, 8, 4, seed=0)
    spec = DecoderSpec(kind, iterations=5, ell=2, osd_order=2)
    cfg1 = small_sweep_cfg(min_frame_errors=25, max_frames=2048,
                           random_codewords=random_codewords)
    cfg2 = small_sweep_cfg(min_frame_errors=25, max_frames=2048, workers=2,
                           random_codewords=random_codewords)
    a = run_sweep(res.code, spec, cfg1, aut=res.aut, timer=fake_timer())
    b = run_sweep(res.code, spec, cfg2, aut=res.aut, timer=fake_timer())
    assert (a[0].frames, a[0].frame_errors, a[0].bit_errors) == \
        (b[0].frames, b[0].frame_errors, b[0].bit_errors)
    # workers may receive the built decoder pickled; a round trip must
    # decode the same one-chunk group to the same counts
    runtime = _Runtime(res.code, spec, res.aut)
    restored = pickle.loads(pickle.dumps(runtime))
    task = (9, random_codewords, 0, 2.0, [(0, 300)])
    assert runtime(task) == restored(task)


def assert_same_record(got, want):
    assert isinstance(got, DecodeOutcome)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("kind", ["bp", "gaed", "rr", "osd"])
def test_every_kind_decodes_to_one_record(kind):
    res = construct_code_with_automorphism(16, 8, 4, seed=0)
    code = res.code
    spec = DecoderSpec(kind, iterations=5, ell=2, osd_order=2)
    runtime = _Runtime(code, spec, res.aut)
    llrs = awgn_llr_batch(np.zeros((300, code.n), dtype=np.uint8), 1.5,
                          code.rate, np.random.default_rng(31))
    out = runtime.decode(llrs)
    assert isinstance(out, DecodeOutcome)
    assert [f.dtype for f in out] == [np.uint8, bool, np.int64, np.intp,
                                      np.float64]
    assert [f.shape for f in out] == [(300, code.n)] + [(300,)] * 4
    cfg = BpConfig(iterations=5)
    path0 = np.zeros(300, dtype=np.intp)
    if kind == "gaed":
        ens = GaedEnsemble(code, power_ensemble(res.aut, spec.powers))
        assert_same_record(out, ens.decode_batch(llrs, cfg))
        assert (out.path_index != 0).any()
    elif kind == "osd":
        hard, corr = osd_decode_batch(code, llrs, 2)
        assert not ((code.h_numpy() @ out.hard_bits.T) % 2).any()
        assert np.array_equal(out.hard_bits, hard)
        assert np.array_equal(out.correlation, corr)
        assert out.is_codeword.all() and not out.iterations_used.any()
        assert np.array_equal(out.path_index, path0)
    else:
        graph = TannerGraph.from_pcm(code.h)
        if kind == "rr":
            # the redundant PCM comes from the runtime's own dual-word pool
            graph = runtime.decode.args[0]
            assert graph.check_vars.shape[0] == 2 * (code.n - code.k)
        hard, valid, iters = bp_min_sum_batch(graph, llrs, cfg)
        assert_same_record(out, (hard, valid, iters, path0,
                                 _correlation(hard, llrs)))
        assert not valid.all()
    restored = pickle.loads(pickle.dumps(runtime))
    assert_same_record(restored.decode(llrs), out)


def test_osd_workers_never_enumerate_the_code(monkeypatch):
    real = codes.min_distance
    calls = []

    def counting(code):
        calls.append(code)
        return real(code)

    monkeypatch.setattr(codes, "min_distance", counting)
    res = construct_code_with_automorphism(16, 8, 4, seed=0)
    runtime = _Runtime(res.code, DecoderSpec("osd", osd_order=2), None)
    assert calls == [res.code]
    # a worker receives the runtime pickled, as a process pool sends it
    restored = pickle.loads(pickle.dumps(runtime))
    calls.clear()
    restored((9, False, 0, 2.0, [(0, 300)]))
    assert calls == []


@pytest.fixture
def fake_pool(monkeypatch):
    """Run pool tasks in process and log each pool's max_workers and the
    chunk count of every task it maps. A forking pool starts all
    max_workers processes at the first submit, so no process is started."""
    log = {"max_workers": [], "groups": []}

    class InProcessPool:
        def __init__(self, max_workers):
            log["max_workers"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            log["groups"].append([len(task[-1]) for task in tasks])
            return map(fn, tasks)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", InProcessPool)
    return log


@pytest.mark.parametrize("random_codewords", [False, True])
@pytest.mark.parametrize("kind", ["bp", "gaed", "rr", "osd"])
def test_one_group_counts_equal_the_sum_of_its_chunks(kind, random_codewords):
    res = construct_code_with_automorphism(16, 8, 4, seed=0)
    runtime = _Runtime(res.code, DecoderSpec(kind, iterations=5, ell=2,
                                             osd_order=2), res.aut)
    # the default slice holds the whole round; 100 frames makes several
    # draws a chunk and slices that end inside a round
    for batch_frames, sizes in ((runtime.batch_frames, [256] * 8),
                                (100, [256, 100, 37, 300, 1, 99, 200, 64])):
        runtime.batch_frames = batch_frames
        chunks = [(5 + i, s) for i, s in enumerate(sizes)]
        whole = runtime((3, random_codewords, 1, 1.5, chunks))
        parts = [runtime((3, random_codewords, 1, 1.5, [c])) for c in chunks]
        assert whole == tuple(map(sum, zip(*parts)))
        assert whole[0] == sum(sizes) and whole[1] > 0


@pytest.mark.parametrize("random_codewords", [False, True])
@pytest.mark.parametrize("kind", ["bp", "gaed", "rr", "osd"])
def test_uneven_groups_give_the_counts_of_one_worker(fake_pool, kind,
                                                     random_codewords):
    res = construct_code_with_automorphism(16, 8, 4, seed=0)
    spec = DecoderSpec(kind, iterations=5, ell=2, osd_order=2)
    cfgs = [small_sweep_cfg(min_frame_errors=60, max_frames=3000,
                            workers=workers, random_codewords=random_codewords)
            for workers in (1, 3)]
    one, three = (run_sweep(res.code, spec, cfg, aut=res.aut,
                            timer=fake_timer()) for cfg in cfgs)
    assert one == three
    assert fake_pool["groups"][0] == [2, 3, 3]


def test_process_pool_is_capped_at_one_rounds_chunks(fake_pool):
    code = LinearCode.from_pcm(HAMMING_74_H)
    spec = DecoderSpec("bp", iterations=5)
    serial = run_sweep(code, spec, small_sweep_cfg(), timer=fake_timer())
    for workers in (2, _CHUNKS_PER_ROUND, 5000):
        assert run_sweep(code, spec, small_sweep_cfg(workers=workers),
                         timer=fake_timer()) == serial
    assert fake_pool["max_workers"] == [2, _CHUNKS_PER_ROUND,
                                        _CHUNKS_PER_ROUND]


def test_sweep_stops_exactly_at_max_frames_when_error_free():
    code = LinearCode.from_pcm(HAMMING_74_H)
    spec = DecoderSpec("bp", iterations=5)
    cfg = SweepConfig(ebn0_db=(20.0,), min_frame_errors=10, max_frames=3000,
                      seed=1)
    rec = run_sweep(code, spec, cfg, timer=fake_timer())[0]
    assert rec.frames == 3000              # chunk sizing respects the cap
    assert rec.frame_errors == 0
    assert rec.fer == 0.0 and rec.ci95 == 0.0


def test_sweep_stops_at_round_boundary_after_enough_errors():
    code = LinearCode.from_pcm(HAMMING_74_H)
    spec = DecoderSpec("bp", iterations=5)
    cfg = SweepConfig(ebn0_db=(0.0,), min_frame_errors=10, max_frames=100_000,
                      seed=3)
    rec = run_sweep(code, spec, cfg, timer=fake_timer())[0]
    assert rec.frame_errors >= 10
    assert rec.frames == 8 * 256           # one full first round, then stop


def test_sweep_random_codewords_mode():
    code = LinearCode.from_pcm(HAMMING_74_H)
    spec = DecoderSpec("bp", iterations=5)
    a = run_sweep(code, spec, small_sweep_cfg(random_codewords=True),
                  timer=fake_timer())
    b = run_sweep(code, spec, small_sweep_cfg(random_codewords=True),
                  timer=fake_timer())
    zero = run_sweep(code, spec, small_sweep_cfg(), timer=fake_timer())
    assert a == b
    assert (a[0].frames, a[0].frame_errors) != (zero[0].frames, zero[0].frame_errors) \
        or a[0].bit_errors != zero[0].bit_errors


def test_sweep_multiple_points_and_monotone_fer():
    code = LinearCode.from_pcm(HAMMING_74_H)
    spec = DecoderSpec("bp", iterations=5)
    cfg = SweepConfig(ebn0_db=(0.0, 4.0, 8.0), min_frame_errors=50,
                      max_frames=20_000, seed=2)
    recs = run_sweep(code, spec, cfg, timer=fake_timer())
    assert [r.ebno_db for r in recs] == [0.0, 4.0, 8.0]
    assert recs[0].fer > recs[1].fer > recs[2].fer


def test_sweep_gaed_rr_osd_kinds():
    res = construct_code_with_automorphism(16, 8, 4, seed=0)
    code, aut = res.code, res.aut
    cfg = small_sweep_cfg(min_frame_errors=15, max_frames=2048)

    gaed = run_sweep(code, DecoderSpec("gaed", iterations=6), cfg, aut=aut,
                     timer=fake_timer())
    assert gaed[0].frames >= 1

    rr = run_sweep(code, DecoderSpec("rr", iterations=6, ell=2), cfg,
                   timer=fake_timer())   # its pool is a seeded search
    assert rr[0].frames >= 1

    osd_code = LinearCode.from_pcm(HAMMING_74_H)
    osd = run_sweep(osd_code, DecoderSpec("osd", osd_order=2),
                    small_sweep_cfg(min_frame_errors=15, max_frames=1024),
                    timer=fake_timer())
    assert osd[0].frames >= 1

    bp = run_sweep(code, DecoderSpec("bp", iterations=6), cfg,
                   timer=fake_timer())
    # the ensemble never underperforms plain BP on the same frames by much;
    # at minimum it runs and reports sane counts
    assert 0 <= gaed[0].frame_errors <= gaed[0].frames
    assert 0 <= bp[0].frame_errors <= bp[0].frames


def test_sweep_gaed_requires_automorphism():
    res = construct_code_with_automorphism(16, 8, 4, seed=0)
    with pytest.raises(ValueError, match="need an automorphism"):
        run_sweep(res.code, DecoderSpec("gaed"), small_sweep_cfg())
    from gaedkit.automorphisms import GeneralizedAutomorphism
    rng = np.random.default_rng(1)
    bad = GeneralizedAutomorphism.from_matrix(
        BitMatrix.random_invertible(res.code.n, rng))
    with pytest.raises(ValueError, match="not an automorphism"):
        run_sweep(res.code, DecoderSpec("gaed"), small_sweep_cfg(), aut=bad)


def test_write_csv(tmp_path):
    code = LinearCode.from_pcm(HAMMING_74_H)
    recs = run_sweep(code, DecoderSpec("bp", iterations=5),
                     small_sweep_cfg(min_frame_errors=10, max_frames=512),
                     timer=fake_timer())
    out = tmp_path / "run.csv"
    write_csv(recs, out)
    text = out.read_text()
    assert text == format_records(recs)
    assert text.splitlines()[0] == CSV_HEADER
