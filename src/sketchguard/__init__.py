"""Sketched matrix products that estimate their own error-size tradeoff.

The library compresses a tall matrix pair (A, B) with a random sketching
operator, bootstraps the distribution of the max-abs error of the sketched
product from the sketches alone, and extrapolates the resulting quantile
curve across sketch sizes, so accuracy can be certified or the minimal
sketch size planned for a target error.
"""

from .booterr import (
    BootstrapConfig,
    BootstrapScheme,
    QuantileEstimate,
    bootstrap_quantile,
    budget_check,
    empirical_quantile,
    extrapolate,
    multiplier_error,
    plan_sketch_size,
)
from .datagen import (
    RankMode,
    SynthProfile,
    libsvm_load,
    mvt_rows,
    normalize_gram_linf,
    singular_value_profile,
    synth_matrix,
)
from .matcore import DenseMatrix, NonFiniteResultError, ZeroMatrixError, matmul_t
from .oracle import QuantileCurve, mc_quantile_curve
from .sketch import (
    LengthSamplingError,
    SketchKind,
    SketchPair,
    SketchSpec,
    apply_spec,
    fwht_in_place,
    gaussian_sketch,
    length_sampling_probs,
    row_sample_sketch,
    srht_sketch,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapConfig",
    "BootstrapScheme",
    "DenseMatrix",
    "LengthSamplingError",
    "NonFiniteResultError",
    "QuantileCurve",
    "QuantileEstimate",
    "RankMode",
    "SketchKind",
    "SketchPair",
    "SketchSpec",
    "SynthProfile",
    "ZeroMatrixError",
    "apply_spec",
    "bootstrap_quantile",
    "budget_check",
    "empirical_quantile",
    "extrapolate",
    "fwht_in_place",
    "gaussian_sketch",
    "length_sampling_probs",
    "libsvm_load",
    "matmul_t",
    "mc_quantile_curve",
    "multiplier_error",
    "mvt_rows",
    "normalize_gram_linf",
    "plan_sketch_size",
    "row_sample_sketch",
    "singular_value_profile",
    "srht_sketch",
    "synth_matrix",
]
