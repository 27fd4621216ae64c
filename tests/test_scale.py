"""Power-of-two scale equivariance of the library calls (ROADMAP item 10).

The exact product, sketching, the bootstrap and the oracle are bilinear in
(A, B), and scaling by a power of two is exact in binary floating point while
values stay normal. So for the pair (2^e A, 2^f B) the exact and sketched
products, every sketch, bootstrap sample and oracle error must equal the
unscaled run's times 2^e, 2^f or 2^(e+f), bit for bit. When the
scaled values leave the normal range, the call must raise NonFiniteResultError
rather than return a different finite answer.
"""

import numpy as np
import pytest

from sketchguard.booterr import BootstrapConfig, BootstrapScheme, bootstrap_quantile
from sketchguard.datagen import RankMode, SynthProfile, synth_matrix
from sketchguard.matcore import DenseMatrix, NonFiniteResultError, matmul_t
from sketchguard.oracle import mc_quantile_curve
from sketchguard.sketch import SketchKind, SketchSpec, apply_spec

A = synth_matrix(SynthProfile(513, 8, RankMode.HIGH, 1))
B = synth_matrix(SynthProfile(513, 5, RankMode.LOW, 2))
T, REPLICATES, GRID, REPS, SEED = 16, 20, (8, 16, 40), 10, 3
NORMAL_RANGE = [(-300, -200), (-100, 50), (100, 200), (500, 100)]
KINDS = pytest.mark.parametrize("kind", list(SketchKind), ids=[k.value for k in SketchKind])

UNDERFLOW_GIVES_ZEROS = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 10: an underflowing product gives zeros, not a numerical failure",
)


def scaled(m: DenseMatrix, e: int) -> DenseMatrix:
    return DenseMatrix(np.ldexp(m.array, e))


def pairings(e: int, f: int):
    """(base pair, scaled pair, the scaled sides' exponents) for one matrix and for two."""
    one = scaled(A, e)
    return [((A, A), (one, one), (e, e)), ((A, B), (one, scaled(B, f)), (e, f))]


def sketches_and_samples(a, b, kind, scheme):
    pair = apply_spec(a, b, SketchSpec(kind, T, SEED))
    est = bootstrap_quantile(pair, BootstrapConfig(scheme, REPLICATES, 0.05, SEED))
    return pair.a_sketch.array, pair.b_sketch.array, np.array(est.samples)


def oracle_errors(a, b, kind):
    return mc_quantile_curve(a, b, kind, GRID, REPS, 0.1, SEED).errors


def sketched_product(a, b, kind):
    return apply_spec(a, b, SketchSpec(kind, T, SEED)).sketched_product


@KINDS
@pytest.mark.parametrize("e, f", NORMAL_RANGE)
def test_normal_range_scales_every_output_exactly(kind, e, f):
    for (a, b), (sa, sb), (ea, eb) in pairings(e, f):
        for scheme in BootstrapScheme:
            base = sketches_and_samples(a, b, kind, scheme)
            got = sketches_and_samples(sa, sb, kind, scheme)
            for name, x, y, k in zip(("SA", "SB", "samples"), base, got, (ea, eb, ea + eb)):
                np.testing.assert_array_equal(y, np.ldexp(x, k), err_msg=f"{name}, {scheme.value}")
        np.testing.assert_array_equal(
            oracle_errors(sa, sb, kind), np.ldexp(oracle_errors(a, b, kind), ea + eb)
        )


def out_of_range_cases():
    for kind in SketchKind:
        yield pytest.param(kind, 520, 520, id=f"{kind.value}-overflow")
        marks = () if kind is SketchKind.LENGTH_SAMPLE else UNDERFLOW_GIVES_ZEROS
        yield pytest.param(kind, -560, -560, marks=marks, id=f"{kind.value}-underflow")


@pytest.mark.parametrize("kind, e, f", out_of_range_cases())
def test_out_of_range_is_a_numerical_failure(kind, e, f):
    for _, (sa, sb), _ in pairings(e, f):
        for scheme in BootstrapScheme:
            with pytest.raises(NonFiniteResultError):
                sketches_and_samples(sa, sb, kind, scheme)
        with pytest.raises(NonFiniteResultError):
            oracle_errors(sa, sb, kind)


@KINDS
@pytest.mark.parametrize("e, f", NORMAL_RANGE)
def test_normal_range_scales_both_products_exactly(kind, e, f):
    for (a, b), (sa, sb), (ea, eb) in pairings(e, f):
        np.testing.assert_array_equal(matmul_t(sa, sb).array, np.ldexp(matmul_t(a, b).array, ea + eb))
        np.testing.assert_array_equal(
            sketched_product(sa, sb, kind), np.ldexp(sketched_product(a, b, kind), ea + eb)
        )


@pytest.mark.parametrize(
    "e, f", [(520, 520), pytest.param(-560, -560, marks=UNDERFLOW_GIVES_ZEROS)],
    ids=["overflow", "underflow"],
)
def test_out_of_range_exact_product_is_a_numerical_failure(e, f):
    for _, (sa, sb), _ in pairings(e, f):
        with pytest.raises(NonFiniteResultError):
            matmul_t(sa, sb)


@pytest.mark.parametrize("kind, e, f", out_of_range_cases())
def test_out_of_range_sketched_product_is_a_numerical_failure(kind, e, f):
    for _, (sa, sb), _ in pairings(e, f):
        with pytest.raises(NonFiniteResultError):
            sketched_product(sa, sb, kind)
