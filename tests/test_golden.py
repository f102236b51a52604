"""Fixed outputs for fixed seeds: constructions, distances and FER counts.

Every value here is a pure function of its seed. A change that means to
keep outputs bit-identical must leave this file passing unedited; a change
that means to alter them must say which values moved and why.
"""

import hashlib

import pytest

from gaedkit import (DecoderSpec, SweepConfig,
                     construct_code_with_automorphism, min_distance, run_sweep)

# (n, k, delta_obj, seed)
CONSTRUCTIONS = ([(64, 48, 16, s) for s in range(5)] + [(40, 20, 10, 0)]
                 + [(32, 16, 10, s) for s in range(5)]
                 + [(39, 24, 0, 17), (16, 8, 0, 0)])
CONSTRUCTION_SHA256 = \
    "d9f09bcd201648ab77a66f0e8c10ee712a6cfc0cdbbee263a3999c80263fad50"
MIN_DISTANCES = [1, 2, 1, 1, 1, 6, 1, 1, 1, 5, 1, 4, 1]

# (frames, frame_errors, bit_errors) of one 2048-frame round at 4 dB on the
# (32, 16) seed-6 code, with each decoder kind at its default settings
SWEEP_COUNTS = {
    ("bp", False): (2048, 54, 251),
    ("gaed", False): (2048, 40, 195),
    ("rr", False): (2048, 27, 204),
    ("osd", False): (2048, 3, 24),
    ("bp", True): (2048, 43, 189),
    ("gaed", True): (2048, 28, 133),
    ("rr", True): (2048, 17, 117),
    ("osd", True): (2048, 5, 38),
}


@pytest.fixture(scope="module")
def constructions():
    return [construct_code_with_automorphism(n, k, d, seed=s)
            for n, k, d, s in CONSTRUCTIONS]


def test_construction_digest(constructions):
    digest = hashlib.sha256()
    for res in constructions:
        for m in (res.code.h, res.code.g, res.aut.matrix):
            digest.update(f"{m.rows}x{m.cols}:{','.join(map(str, m))};"
                          .encode())
        digest.update(f"{res.attempts},{res.ordering_failures}|".encode())
    assert digest.hexdigest() == CONSTRUCTION_SHA256


def test_min_distances(constructions):
    assert [min_distance(res.code) for res in constructions] == MIN_DISTANCES


@pytest.mark.parametrize("kind,random_codewords", sorted(SWEEP_COUNTS))
def test_sweep_counts(kind, random_codewords):
    res = construct_code_with_automorphism(32, 16, 10, seed=6)
    cfg = SweepConfig(ebn0_db=(4.0,), min_frame_errors=10**9, max_frames=2048,
                      seed=1, random_codewords=random_codewords)
    rec, = run_sweep(res.code, DecoderSpec(kind), cfg, aut=res.aut)
    assert (rec.frames, rec.frame_errors, rec.bit_errors) == \
        SWEEP_COUNTS[kind, random_codewords]
