"""Codes with designed sparse automorphisms and ensemble BP decoding."""

from .automorphisms import (Ccm, ConstructionError, ConstructionResult,
                            GeneralizedAutomorphism, ZBlockMatrix,
                            compute_ccm, conjugate_z,
                            construct_code_with_automorphism,
                            membership_in_z, order_blocks, random_z_block,
                            sample_sparse_invertible, verify_automorphism)
from .channel import LLR_CLAMP, LlrVector, awgn_llr_batch
from .codes import (DualWordPool, LinearCode, ReductionError,
                    four_cycle_count, low_weight_dual_search, min_distance,
                    optimize_pcm, reduce_zero_columns, weight_distribution)
from .decoders import (BpConfig, DecodeOutcome, GaedEnsemble, box_plus,
                       osd_decode, power_ensemble, stack_redundant_pcm)
from .frobenius import FrobeniusForm, frobenius_normal_form
from .gf2 import BitMatrix, SingularMatrixError, invert, rank
from .gf2poly import Gf2Poly, factor, is_irreducible, poly_gcd, poly_lcm
from .matio import (read_alist, read_dense, read_kv, write_alist, write_dense,
                    write_kv)
from .osd import osd_decode_batch
from .sweep import (DecoderSpec, FerRecord, SweepConfig, format_records,
                    run_sweep, write_csv)

__version__ = "0.1.0"

__all__ = [
    "BitMatrix", "BpConfig", "Ccm", "ConstructionError", "ConstructionResult",
    "DecodeOutcome", "DecoderSpec", "DualWordPool", "FerRecord",
    "FrobeniusForm", "GaedEnsemble", "GeneralizedAutomorphism", "Gf2Poly",
    "LLR_CLAMP", "LinearCode", "LlrVector", "ReductionError",
    "SingularMatrixError", "SweepConfig", "ZBlockMatrix", "awgn_llr_batch",
    "box_plus", "compute_ccm", "conjugate_z",
    "construct_code_with_automorphism", "factor", "format_records",
    "four_cycle_count", "frobenius_normal_form", "invert", "is_irreducible",
    "low_weight_dual_search", "membership_in_z", "min_distance",
    "optimize_pcm", "order_blocks", "osd_decode", "osd_decode_batch",
    "poly_gcd", "poly_lcm", "power_ensemble", "random_z_block", "rank",
    "read_alist", "read_dense", "read_kv", "reduce_zero_columns", "run_sweep",
    "sample_sparse_invertible", "stack_redundant_pcm", "verify_automorphism",
    "weight_distribution", "write_alist", "write_csv", "write_dense",
    "write_kv",
]
