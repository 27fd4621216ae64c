"""Acceptance suite.

One test per exit criterion, each asserting at its stated tolerance and
printing a PASS line (run with ``pytest tests/test_acceptance.py -v -s`` to
see the lines; each test name doubles as the pass/fail record). The
long-running full-size stable-rank check is opt-in via SKETCHGUARD_FULLSCALE=1.
"""

import math
import os
import time

import numpy as np
import pytest

from helpers import dyad_form_error, explicit_srht_apply, mc_mean_check, stable_rank
from sketchguard.booterr import (
    BootstrapConfig,
    bootstrap_quantile,
    empirical_quantile,
    multiplier_error,
)
from sketchguard.cli import default_t_grid, run_experiment
from sketchguard.datagen import (
    FeatureIndexRangeError,
    MalformedTokenError,
    NonIncreasingIndexError,
    RankMode,
    SynthProfile,
    libsvm_load,
    singular_value_profile,
    synth_matrix,
)
from sketchguard.matcore import DenseMatrix
from sketchguard.oracle import mc_quantile_curve
from sketchguard.rng import derive_seed, substream
from sketchguard.sketch import (
    SketchKind,
    SketchPair,
    SketchSpec,
    apply_spec,
    gaussian_sketch,
    srht_sketch,
)

FULLSCALE = os.environ.get("SKETCHGUARD_FULLSCALE") == "1"


@pytest.fixture(scope="module")
def high_profile_matrix():
    """Shared 2048 x 64 high-stable-rank matrix for the statistical criteria."""
    return synth_matrix(SynthProfile(2048, 64, RankMode.HIGH, 2026))


def test_criterion_01_multiplier_closed_form_equals_dyad_form():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 65))
        d = int(rng.integers(1, 7))
        dp = int(rng.integers(1, 7))
        t = int(rng.integers(2, 33))
        a = DenseMatrix(rng.standard_normal((n, d)))
        b = DenseMatrix(rng.standard_normal((n, dp)))
        pair = gaussian_sketch(a, b, t, trial)
        xi = substream(102, trial).standard_normal((3, t))
        dyad = [dyad_form_error(pair, row) for row in xi]
        diff = float(np.abs(multiplier_error(pair, xi) - dyad).max())
        worst = max(worst, diff)
        assert diff <= 1e-12
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"PASS criterion 1: closed form vs dyad form, worst |diff|={worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_all_kinds_unbiased():
    started = time.monotonic()
    rng = np.random.default_rng(103)
    a = DenseMatrix(rng.standard_normal((64, 4)))
    b = DenseMatrix(rng.standard_normal((64, 4)))
    for kind in SketchKind:
        mc_mean_check(
            lambda i, k=kind: apply_spec(a, b, SketchSpec(k, 8, i)).sketched_product,
            a, b, draws=5000,
        )
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(f"PASS criterion 2: entrywise mean within 5 SE for all four kinds, {elapsed:.1f}s")


def test_criterion_03_srht_fast_path_matches_explicit_operator():
    started = time.monotonic()
    rng = np.random.default_rng(104)
    worst = 0.0
    for n in (8, 16, 32, 64, 128, 256):
        a = rng.standard_normal((n, 3))
        b = rng.standard_normal((n, 2))
        for seed in range(20):
            pair = srht_sketch(DenseMatrix(a), DenseMatrix(b), 5, seed)
            da = np.abs(pair.a_sketch.array - explicit_srht_apply(a, 5, seed)).max()
            db = np.abs(pair.b_sketch.array - explicit_srht_apply(b, 5, seed)).max()
            worst = max(worst, da, db)
            assert da <= 1e-12 and db <= 1e-12
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"PASS criterion 3: fast vs explicit SRHT, worst |diff|={worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_sqrt_t_scaling_law(high_profile_matrix):
    started = time.monotonic()
    m = high_profile_matrix
    curve = mc_quantile_curve(m, m, SketchKind.GAUSSIAN, [64, 128, 256, 512], 400, 0.1, 11)
    slope = float(np.polyfit(np.log(curve.ts), np.log(curve.values), 1)[0])
    elapsed = time.monotonic() - started
    assert -0.6 <= slope <= -0.4
    assert elapsed < 120.0
    print(f"PASS criterion 4: log-log slope {slope:.3f} in [-0.6, -0.4], {elapsed:.0f}s")


def test_criterion_05_extrapolation_tracks_oracle(high_profile_matrix):
    started = time.monotonic()
    m = high_profile_matrix
    d = m.cols
    t0 = d // 2
    grid = default_t_grid(d)
    alpha = 0.1
    curve = mc_quantile_curve(m, m, SketchKind.GAUSSIAN, grid, 400, alpha, 12)
    estimates = []
    for r in range(200):
        pair = apply_spec(m, m, SketchSpec(SketchKind.GAUSSIAN, t0, derive_seed(13, 0, r)))
        cfg = BootstrapConfig("multiplier", 20, alpha, derive_seed(13, 1, r))
        estimates.append(bootstrap_quantile(pair, cfg).value)
    estimates = np.asarray(estimates)
    worst = 0.0
    for t, oracle_q in zip(curve.ts, curve.values):
        est_mean = float(np.mean(math.sqrt(t0 / t) * estimates))
        rel = abs(est_mean - oracle_q) / oracle_q
        worst = max(worst, rel)
        assert rel <= 0.25
    elapsed = time.monotonic() - started
    assert elapsed < 180.0
    print(f"PASS criterion 5: mean extrapolated estimate within 25% everywhere "
          f"(worst {worst:.1%}), {elapsed:.0f}s")


def _coverage_experiment(m, kind):
    """Criterion 6's protocol: t0 = d/2, B = 20, alpha = 0.1, 400/200 reps, seed 22.

    The grid is the default one plus t = 4d. Coverage at t is the fraction of
    (estimator rep, oracle realization) pairs whose error the bound covers.
    """
    d = m.cols
    return run_experiment(
        m, kind, t0=d // 2, t_grid=default_t_grid(d) + (4 * d,), alpha=0.1,
        boot_samples=20, oracle_reps=400, estimator_reps=200, seed=22,
    )


@pytest.fixture(scope="module")
def gaussian_coverage(high_profile_matrix):
    """The Gaussian experiment's result and its wall time in seconds."""
    started = time.monotonic()
    result = _coverage_experiment(high_profile_matrix, SketchKind.GAUSSIAN)
    return result, time.monotonic() - started


def test_criterion_06_coverage(high_profile_matrix, gaussian_coverage):
    result, elapsed = gaussian_coverage
    cov = result.coverage[result.curve.ts.index(4 * high_profile_matrix.cols)]
    assert cov >= 0.85
    assert elapsed < 180.0
    print(f"PASS criterion 6: coverage {cov:.3f} >= 0.85, {elapsed:.0f}s")


def test_criterion_06_coverage_at_every_grid_t(gaussian_coverage):
    result, _ = gaussian_coverage
    assert min(result.coverage) >= 0.85
    print(f"PASS criterion 6 on the whole grid: coverage >= {min(result.coverage):.3f}")


def test_criterion_06_shows_uniform_miscalibration(high_profile_matrix):
    # Uniform sampling of these coherent rows extrapolates a "90%" bound that
    # holds about half the time; the coverage must show it.
    result = _coverage_experiment(high_profile_matrix, SketchKind.UNIFORM_SAMPLE)
    cov = result.coverage[result.curve.ts.index(4 * high_profile_matrix.cols)]
    assert cov < 0.85
    print(f"PASS criterion 6 counter-case: uniform coverage {cov:.3f} < 0.85")


def test_criterion_07_stable_rank_targets():
    for mode in (RankMode.LOW, RankMode.HIGH):
        sigma = singular_value_profile(mode, 256)
        analytic = float((sigma**2).sum() / sigma.max() ** 2)
        m = synth_matrix(SynthProfile(4096, 256, mode, 31))
        measured = stable_rank(m)
        assert abs(measured - analytic) <= 0.10 * analytic
    print("PASS criterion 7: stable rank within 10% of the profile value at 4096x256")


@pytest.mark.fullscale
@pytest.mark.skipif(not FULLSCALE, reason="set SKETCHGUARD_FULLSCALE=1 to run")
def test_criterion_07_fullscale_stable_rank_targets():
    for mode, target in ((RankMode.LOW, 36.7), (RankMode.HIGH, 370.1)):
        m = synth_matrix(SynthProfile(30_000, 1000, mode, 31))
        measured = stable_rank(m)
        assert abs(measured - target) <= 0.05 * target
    print("PASS criterion 7 (full scale): stable ranks 36.7 / 370.1 within 5%")


def test_criterion_08_quantile_rule():
    assert empirical_quantile(list(range(20)), 0.99) == pytest.approx(18.81, abs=1e-12)
    rng = np.random.default_rng(108)
    for _ in range(1000):
        samples = rng.standard_normal(int(rng.integers(1, 60)))
        ps = np.sort(rng.uniform(0.001, 0.999, 4))
        qs = [empirical_quantile(samples, float(p)) for p in ps]
        assert all(q2 >= q1 for q1, q2 in zip(qs, qs[1:]))
    print("PASS criterion 8: interpolated rule value 18.81 and monotone over 1000 sample sets")


def test_criterion_09_scale_equivariance():
    rng = np.random.default_rng(109)
    t = 12
    pair = SketchPair(
        DenseMatrix(rng.standard_normal((t, 3))),
        DenseMatrix(rng.standard_normal((t, 2))),
        SketchSpec(SketchKind.GAUSSIAN, t, 0),
        source_rows=64,
    )
    cfg = BootstrapConfig("multiplier", 20, 0.01, 205)
    base = bootstrap_quantile(pair, cfg)
    for kappa in (0.5, 3.0, 10.0):
        scaled_pair = SketchPair(
            DenseMatrix(kappa * pair.a_sketch.array),
            pair.b_sketch,
            pair.spec,
            pair.source_rows,
        )
        scaled = bootstrap_quantile(scaled_pair, cfg)
        if kappa == 0.5:
            # power-of-two scaling commutes with binary rounding bit for bit
            assert scaled.value == kappa * base.value
        else:
            assert scaled.value == pytest.approx(kappa * base.value, rel=1e-13)
    print("PASS criterion 9: quantile scales with the sketch (0.5 bitwise; 3, 10 at 1e-13)")


def test_criterion_10_libsvm_parser(tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("1 1:0.5 3:2.0\n-1 2:1.0\n1\n", encoding="utf-8")
    m = libsvm_load(good, expected_features=3)
    assert m.array.tolist() == [
        [0.5, 0.0, 2.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0],
    ]

    malformed = tmp_path / "malformed.txt"
    malformed.write_text("1 1:0.5\n1 oops\n", encoding="utf-8")
    with pytest.raises(MalformedTokenError) as exc1:
        libsvm_load(malformed)
    assert exc1.value.line_no == 2

    unordered = tmp_path / "unordered.txt"
    unordered.write_text("1 1:0.5\n1 1:0.5\n1 4:1.0 2:2.0\n", encoding="utf-8")
    with pytest.raises(NonIncreasingIndexError) as exc2:
        libsvm_load(unordered)
    assert exc2.value.line_no == 3

    oversized = tmp_path / "oversized.txt"
    oversized.write_text("1 1:0.5\n1 9:1.0\n", encoding="utf-8")
    with pytest.raises(FeatureIndexRangeError) as exc3:
        libsvm_load(oversized, expected_features=3)
    assert exc3.value.line_no == 2
    print("PASS criterion 10: fixture parses exactly; three error classes with line numbers")
