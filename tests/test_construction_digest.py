"""One SHA-256 over 65 constructions: the construction pipeline, bit for bit.

The digest covers H, G and T of each result with its attempt and failure
counts and its dropped positions. A change that means to keep
constructions bit-identical must leave it passing unedited; a change that
means to alter them must say which constructions moved and why.
"""

import hashlib

from gaedkit import construct_code_with_automorphism

# (n, k, delta_obj, seed), hashed in this order
CONSTRUCTIONS = ([(64, 48, 16, s) for s in range(40)]
                 + [(32, 16, 10, s) for s in range(20)]
                 + [(40, 20, 10, s) for s in range(3)]
                 + [(39, 24, 0, 17), (16, 8, 0, 0)])
CONSTRUCTION_SHA256 = \
    "cfb82b02689ca5f709fda121c4954e85ff2bc09f0b2c625204e7f93d397ff88a"


def test_65_construction_digest():
    digest = hashlib.sha256()
    for n, k, delta, seed in CONSTRUCTIONS:
        res = construct_code_with_automorphism(n, k, delta_obj=delta,
                                               seed=seed)
        digest.update(repr((list(res.code.h), list(res.code.g),
                            list(res.aut.matrix), res.attempts,
                            res.ordering_failures, res.reduction_failures,
                            res.frozen_positions)).encode())
    assert digest.hexdigest() == CONSTRUCTION_SHA256
