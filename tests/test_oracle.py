"""Ground-truth error, Monte-Carlo quantile curves and the errors they keep.

Coverage, scored from a curve's errors, is tested with ``run_experiment`` in
``test_cli`` and ``test_acceptance``.
"""

import math

import numpy as np
import pytest

from helpers import linf_norm, mc_mean_check, true_error
from sketchguard import oracle, sketch
from sketchguard.booterr import empirical_quantile
from sketchguard.cli import ExperimentSpec, main, run_experiment
from sketchguard.datagen import SynthProfile, synth_matrix
from sketchguard.matcore import DenseMatrix, matmul_t
from sketchguard.oracle import QuantileCurve, mc_quantile_curve, pair_sampler
from sketchguard.rng import derive_seed
from sketchguard.sketch import SketchKind, SketchSpec, apply_spec, row_sample_sketch


class TestTrueError:
    def test_single_row_sampling_is_exact(self):
        # Integer-valued inputs keep the arithmetic exact, so the error is
        # identically zero when S restores the original product.
        a = DenseMatrix([[3.0, 2.0]])
        b = DenseMatrix([[2.0, -4.0]])
        pair = row_sample_sketch(a, b, [1.0], 4, 9)
        assert true_error(a, b, pair) == 0.0

    def test_zero_inputs(self):
        z = DenseMatrix(np.zeros((8, 2)))
        m = DenseMatrix(np.random.default_rng(0).standard_normal((8, 2)))
        pair = apply_spec(z, m, SketchSpec(SketchKind.GAUSSIAN, 3, 1))
        assert true_error(z, m, pair) == 0.0

    def test_recomposition_oracle(self):
        rng = np.random.default_rng(1)
        a = DenseMatrix(rng.standard_normal((20, 3)))
        b = DenseMatrix(rng.standard_normal((20, 2)))
        pair = apply_spec(a, b, SketchSpec(SketchKind.GAUSSIAN, 6, 2))
        recomposed = linf_norm(
            DenseMatrix(
                matmul_t(pair.a_sketch, pair.b_sketch).array - matmul_t(a, b).array
            )
        )
        assert true_error(a, b, pair) == recomposed

    def test_mismatched_pair_rejected(self):
        rng = np.random.default_rng(2)
        a = DenseMatrix(rng.standard_normal((10, 2)))
        pair = apply_spec(a, a, SketchSpec(SketchKind.GAUSSIAN, 4, 3))
        other = DenseMatrix(rng.standard_normal((11, 2)))
        with pytest.raises(ValueError):
            true_error(other, other, pair)
        wide = DenseMatrix(rng.standard_normal((10, 5)))
        with pytest.raises(ValueError):
            true_error(wide, wide, pair)


class TestQuantileCurveType:
    def test_requires_increasing_t(self):
        with pytest.raises(ValueError, match="increasing"):
            QuantileCurve(0.1, (4, 4), (1.0, 0.5), (0.5, 0.5), (1.0, 1.0), 10)

    def test_band_ordering(self):
        with pytest.raises(ValueError, match="exceed"):
            QuantileCurve(0.1, (2,), (1.0,), (2.0,), (1.0,), 10)

    @pytest.mark.parametrize("field", ["values", "band_low", "band_high"])
    def test_fields_must_parallel_the_t_values(self, field):
        fields = dict(alpha=0.1, ts=(2, 4), values=(1.0, 0.5), band_low=(0.5, 0.25),
                      band_high=(1.5, 0.75), reps=10)
        QuantileCurve(**fields)
        fields[field] = fields[field][:1]
        with pytest.raises(ValueError, match="parallel"):
            QuantileCurve(**fields)


class TestMcQuantileCurve:
    def test_zero_matrix_curve_is_zero(self):
        z = DenseMatrix(np.zeros((16, 2)))
        curve = mc_quantile_curve(z, z, SketchKind.GAUSSIAN, [2, 4], 20, 0.1, 0)
        assert curve.values == (0.0, 0.0)
        assert curve.band_low == (0.0, 0.0)
        assert curve.band_high == (0.0, 0.0)

    def test_single_source_row_uniform_sampling_is_zero(self):
        # Power-of-two sketch sizes keep the 1/sqrt(t) rescaling exact on
        # integer entries, so exactness shows up as an identically zero curve.
        a = DenseMatrix([[2.0, 1.0]])
        curve = mc_quantile_curve(a, a, SketchKind.UNIFORM_SAMPLE, [4, 16], 30, 0.1, 1)
        assert curve.values == (0.0, 0.0)

    def test_sqrt_scaling_and_monotone_decay(self):
        m = synth_matrix(SynthProfile(512, 16, "high", 42))
        curve = mc_quantile_curve(m, m, SketchKind.GAUSSIAN, [32, 64, 128, 256], 400, 0.1, 7)
        slope = np.polyfit(np.log(curve.ts), np.log(curve.values), 1)[0]
        assert -0.6 <= slope <= -0.4
        for v1, v2 in zip(curve.values, curve.values[1:]):
            assert v2 <= v1 * 1.15

    def test_reproducible_for_fixed_seed(self):
        rng = np.random.default_rng(3)
        a = DenseMatrix(rng.standard_normal((32, 3)))
        c1 = mc_quantile_curve(a, a, SketchKind.SRHT, [4, 8], 25, 0.2, 5)
        c2 = mc_quantile_curve(a, a, SketchKind.SRHT, [4, 8], 25, 0.2, 5)
        assert c1 == c2

    def test_row_permutation_leaves_curve_within_bands(self):
        rng = np.random.default_rng(4)
        raw = rng.standard_normal((64, 4))
        perm = rng.permutation(64)
        a = DenseMatrix(raw)
        ap = DenseMatrix(raw[perm])
        base = mc_quantile_curve(a, a, SketchKind.UNIFORM_SAMPLE, [16], 300, 0.5, 6)
        permuted = mc_quantile_curve(ap, ap, SketchKind.UNIFORM_SAMPLE, [16], 300, 0.5, 7)
        assert base.band_low[0] <= permuted.values[0] <= base.band_high[0]
        assert permuted.band_low[0] <= base.values[0] <= permuted.band_high[0]

    def test_curve_keeps_the_errors_it_summarizes(self):
        m = synth_matrix(SynthProfile(64, 4, "high", 8))
        curve = mc_quantile_curve(m, m, SketchKind.SRHT, [16, 4, 8], 25, 0.2, 9)
        assert curve.errors.shape == (25, 3)
        draw = pair_sampler(m, m, SketchKind.SRHT)
        assert curve.errors[3, 2] == _errors(draw, m, m, 16, 4, 9)[3]
        for i, column in enumerate(curve.errors.T):
            assert curve.values[i] == empirical_quantile(column, 0.8)
            assert curve.band_low[i] == empirical_quantile(column, 0.1)
            assert curve.band_high[i] == empirical_quantile(column, 0.9)

    def test_validation(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("sketches were drawn before the arguments were checked")

        monkeypatch.setattr(oracle, "pair_sampler", no_draws)
        a = DenseMatrix(np.ones((4, 2)))
        with pytest.raises(ValueError):
            mc_quantile_curve(a, a, SketchKind.GAUSSIAN, [2], 5, 0.1, 0)
        with pytest.raises(ValueError):
            mc_quantile_curve(a, a, SketchKind.GAUSSIAN, [], 20, 0.1, 0)
        for alpha in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError, match="alpha"):
                mc_quantile_curve(a, a, SketchKind.GAUSSIAN, [2], 20, alpha, 0)
        for grid in ([0, 8], [-4, 8]):
            for kind in SketchKind:
                with pytest.raises(ValueError, match="at least 1"):
                    mc_quantile_curve(a, a, kind, grid, 20, 0.1, 0)


def _errors(draw, a, b, t, count, seed):
    truth = matmul_t(a, b).array
    return np.array([
        float(np.abs(draw(t, derive_seed(seed, r)).sketched_product - truth).max())
        for r in range(count)
    ])


def _ks_statistic(x, y):
    """Two-sample Kolmogorov-Smirnov statistic: sup |F_x - F_y|."""
    pooled = np.concatenate([x, y])
    fx = np.searchsorted(np.sort(x), pooled, side="right") / len(x)
    fy = np.searchsorted(np.sort(y), pooled, side="right") / len(y)
    return float(np.abs(fx - fy).max())


def _ks_critical(n, m, level=0.001):
    """Asymptotic two-sample KS critical value at the given level."""
    return math.sqrt(-0.5 * math.log(level / 2)) * math.sqrt((n + m) / (n * m))


class TestGramSpaceSampler:
    """Gaussian draws of gaussian_sketch on R (from a QR of [A B]) against S on the data."""

    DRAWS = 500

    def assert_same_error_law(self, a, b, t, seed):
        gram = _errors(pair_sampler(a, b, SketchKind.GAUSSIAN), a, b, t, self.DRAWS, seed)
        dense = _errors(
            lambda t_, s: sketch.gaussian_sketch(a, b, t_, s), a, b, t, self.DRAWS, seed + 1
        )
        assert _ks_statistic(gram, dense) <= _ks_critical(self.DRAWS, self.DRAWS)

    def test_error_law_matches_materialized_sketches(self):
        a = synth_matrix(SynthProfile(256, 8, "high", 50))
        b = synth_matrix(SynthProfile(256, 5, "high", 51))
        self.assert_same_error_law(a, a, 16, 52)
        self.assert_same_error_law(a, b, 16, 53)

    def test_pair_shape_and_aliasing(self):
        a = synth_matrix(SynthProfile(64, 4, "high", 54))
        b = synth_matrix(SynthProfile(64, 3, "high", 55))
        draw = pair_sampler(a, b, "gaussian")
        pair = draw(6, 1)
        assert pair.a_sketch.shape == (6, 4) and pair.b_sketch.shape == (6, 3)
        assert pair.source_rows == 64 and pair.spec == SketchSpec("gaussian", 6, 1)
        same = pair_sampler(a, a, "gaussian")(6, 1)
        assert same.b_sketch is same.a_sketch
        assert draw(6, 1).a_sketch == pair.a_sketch

    @pytest.mark.parametrize("case", ["duplicate-columns", "fewer-rows-than-columns"])
    def test_rank_deficient_input(self, case):
        rng = np.random.default_rng(56)
        if case == "duplicate-columns":
            base = rng.standard_normal((64, 3))
            a = b = DenseMatrix(np.hstack([base, base]))
        else:
            a = DenseMatrix(rng.standard_normal((4, 3)))
            b = DenseMatrix(rng.standard_normal((4, 5)))
        draw = pair_sampler(a, b, SketchKind.GAUSSIAN)
        mc_mean_check(lambda i: draw(8, i).sketched_product, a, b, draws=2000)
        self.assert_same_error_law(a, b, 8, 57)

    def test_other_kinds_pass_through_to_apply_spec(self):
        a = DenseMatrix(np.random.default_rng(58).standard_normal((32, 3)))
        for kind in ("uniform", "length", "srht"):
            drawn = pair_sampler(a, a, kind)(8, 4)
            assert drawn.a_sketch == apply_spec(a, a, SketchSpec(kind, 8, 4)).a_sketch

    def test_gaussian_oracle_does_not_materialize_s(self, monkeypatch):
        # every Gaussian draw of the oracle sketches R, never the n-row data
        rows = []
        real = oracle.gaussian_sketch

        def recorder(a, b, t, seed):
            rows.append(a.rows)
            return real(a, b, t, seed)

        monkeypatch.setattr(oracle, "gaussian_sketch", recorder)
        m = synth_matrix(SynthProfile(128, 4, "high", 59))
        curve = mc_quantile_curve(m, m, SketchKind.GAUSSIAN, [4, 8], 20, 0.1, 0)
        assert all(v > 0 for v in curve.values)
        result = run_experiment(ExperimentSpec(
            m, SketchKind.GAUSSIAN, t0=4, t_grid=(8,), alpha=0.1, boot_samples=5,
            oracle_reps=10, estimator_reps=10, seed=1,
        ))
        assert 0.0 <= result.coverage[0] <= 1.0
        assert len(rows) == 20 + 10 + 10
        assert max(rows) <= min(m.rows, m.cols)

    @pytest.mark.parametrize("same", [True, False], ids=["b-is-a", "b-differs"])
    def test_draw_is_gaussian_sketch_of_r(self, same):
        rng = np.random.default_rng(68)
        a = DenseMatrix(rng.standard_normal((300, 7)))
        b = a if same else DenseMatrix(rng.standard_normal((300, 5)))
        r = np.linalg.qr(a.array if same else np.hstack([a.array, b.array]), mode="r")
        r_a = DenseMatrix(r[:, : a.cols])
        r_b = r_a if same else DenseMatrix(r[:, a.cols :])
        draw = pair_sampler(a, b, SketchKind.GAUSSIAN)
        for t, seed in ((1, 69), (17, 70), (640, 71)):
            pair = draw(t, seed)
            expected = sketch.gaussian_sketch(r_a, r_b, t, seed)
            assert pair.a_sketch.array.tobytes() == expected.a_sketch.array.tobytes()
            assert pair.b_sketch.array.tobytes() == expected.b_sketch.array.tobytes()
            assert pair.spec == expected.spec and pair.source_rows == 300
            assert (pair.b_sketch is pair.a_sketch) == same


class TestNestedOracle:
    """One draw at t_max serves every grid t: its rescaled prefix is a draw at t."""

    @pytest.mark.parametrize("kind", list(SketchKind))
    def test_rescaled_prefix_equals_a_draw_at_t(self, kind):
        rng = np.random.default_rng(60)
        a = DenseMatrix(rng.standard_normal((100, 4)))
        b = DenseMatrix(rng.standard_normal((100, 3)))
        draw = pair_sampler(a, b, kind)
        t_max = 40
        big = draw(t_max, 61)
        for t in (1, 7, 16, t_max):
            small = draw(t, 61)
            for prefix, sk in ((big.a_sketch, small.a_sketch), (big.b_sketch, small.b_sketch)):
                rescaled = prefix.array[:t] * math.sqrt(t_max / t)
                assert np.abs(rescaled - sk.array).max() <= 1e-12 * np.abs(sk.array).max()

    @pytest.mark.parametrize("kind", ["srht", "length"])
    def test_nested_errors_match_independent_draws_in_law(self, kind):
        a = synth_matrix(SynthProfile(200, 8, "high", 62))
        b = synth_matrix(SynthProfile(200, 5, "high", 63))
        draws = TestGramSpaceSampler.DRAWS
        curve = mc_quantile_curve(a, b, kind, [4, 16], draws, 0.2, 64)
        draw = pair_sampler(a, b, kind)
        for t, nested in zip((4, 16), curve.errors.T):
            fresh = _errors(draw, a, b, t, draws, 65)
            assert _ks_statistic(nested, fresh) <= _ks_critical(draws, draws)

    def test_one_draw_per_realization_at_t_max(self, monkeypatch):
        calls = []
        sampler = oracle.pair_sampler

        def counting(a, b, kind):
            draw = sampler(a, b, kind)

            def counted(t, seed):
                calls.append((t, seed))
                return draw(t, seed)

            return counted

        monkeypatch.setattr(oracle, "pair_sampler", counting)
        m = synth_matrix(SynthProfile(64, 4, "high", 66))
        mc_quantile_curve(m, m, SketchKind.SRHT, [8, 4, 16], 12, 0.1, 67)
        assert sorted(calls) == sorted((16, derive_seed(67, r)) for r in range(12))

    def test_srht_curve_bytes_do_not_depend_on_thread_count(self, monkeypatch, tmp_path):
        argv = ["oracle", "--synth", "1025,8,high", "--kind", "srht", "--t-grid", "4,16,64",
                "--alpha", "0.1", "--reps", "30", "--seed", "3"]
        monkeypatch.setenv("SKETCHGUARD_THREADS", "1")
        assert main(argv + ["--out", str(tmp_path / "serial.csv")]) == 0
        monkeypatch.setenv("SKETCHGUARD_THREADS", "2")
        assert main(argv + ["--out", str(tmp_path / "pooled.csv")]) == 0
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "pooled.csv").read_bytes()
