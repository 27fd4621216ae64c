"""Bootstrap kernel, quantile, extrapolation, and planning tests."""

import itertools
import math

import numpy as np
import pytest

from sketchguard.booterr import (
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
from sketchguard.matcore import DenseMatrix, NonFiniteResultError
from sketchguard.rng import substream
from sketchguard.sketch import SketchKind, SketchPair, SketchSpec, gaussian_sketch


def make_pair(t: int, d: int, dp: int, seed: int = 0) -> SketchPair:
    rng = np.random.default_rng(seed)
    return SketchPair(
        DenseMatrix(rng.standard_normal((t, d))),
        DenseMatrix(rng.standard_normal((t, dp))),
        SketchSpec(SketchKind.GAUSSIAN, t, 0),
        source_rows=100,
    )


from helpers import dyad_form_error, resample_error  # noqa: E402


class TestMultiplierSample:
    def test_zero_sketch_gives_zero(self):
        t, d, dp = 6, 3, 2
        rng = np.random.default_rng(1)
        pair = SketchPair(
            DenseMatrix(np.zeros((t, d))),
            DenseMatrix(rng.standard_normal((t, dp))),
            SketchSpec(SketchKind.GAUSSIAN, t, 0),
            source_rows=10,
        )
        est = bootstrap_quantile(pair, BootstrapConfig("multiplier", 5, 0.1, 3))
        assert est.samples == (0.0,) * 5

    def test_single_row_cancels_exactly(self):
        pair = make_pair(1, 3, 2, seed=2)
        est = bootstrap_quantile(pair, BootstrapConfig("multiplier", 5, 0.1, 4))
        assert est.samples == (0.0,) * 5

    def test_matches_dyad_form_with_fixed_weights(self):
        pair = make_pair(8, 3, 2, seed=3)
        xi = substream(9, 0).standard_normal(8)
        got = multiplier_error(pair, xi)
        want = dyad_form_error(pair, xi)
        assert abs(got - want) <= 1e-12

    def test_dyad_form_equivalence_random_instances(self):
        rng = np.random.default_rng(5)
        for trial in range(25):
            t = int(rng.integers(2, 33))
            pair = make_pair(t, int(rng.integers(1, 7)), int(rng.integers(1, 7)), seed=trial)
            xi = substream(6, trial).standard_normal(t)
            assert abs(multiplier_error(pair, xi) - dyad_form_error(pair, xi)) <= 1e-12

    def test_weight_shape_validated(self):
        pair = make_pair(4, 2, 2)
        with pytest.raises(ValueError):
            multiplier_error(pair, np.zeros(3))


class TestNonFiniteSamples:
    @pytest.mark.parametrize("scheme", list(BootstrapScheme))
    def test_overflowing_sample_raises(self, scheme):
        rng = np.random.default_rng(4)
        big = DenseMatrix(rng.standard_normal((8, 2)) * 1e160)
        pair = SketchPair(big, big, SketchSpec(SketchKind.GAUSSIAN, 8, 0), 8)
        with pytest.raises(NonFiniteResultError, match="bootstrap sample"):
            bootstrap_quantile(pair, BootstrapConfig(scheme, 5, 0.1, 3))


class TestNonparametricSample:
    def test_single_row_resample_is_zero(self):
        pair = make_pair(1, 2, 2, seed=7)
        est = bootstrap_quantile(pair, BootstrapConfig("nonparametric", 2, 0.1, 1))
        assert est.samples == (0.0, 0.0)

    def test_identical_rows_resample_invariance(self):
        row_a = np.array([1.5, -2.0, 0.5])
        row_b = np.array([0.25, 4.0])
        pair = SketchPair(
            DenseMatrix(np.tile(row_a, (5, 1))),
            DenseMatrix(np.tile(row_b, (5, 1))),
            SketchSpec(SketchKind.GAUSSIAN, 5, 0),
            source_rows=20,
        )
        est = bootstrap_quantile(pair, BootstrapConfig("nonparametric", 10, 0.1, 2))
        assert est.samples == (0.0,) * 10

    def test_empirical_distribution_matches_enumeration(self):
        pair = make_pair(3, 2, 2, seed=8)
        outcomes = {}
        for idx in itertools.product(range(3), repeat=3):
            v = round(resample_error(pair, np.array(idx)), 12)
            outcomes[v] = outcomes.get(v, 0) + 1
        draws = 100_000
        counts = {v: 0 for v in outcomes}
        est = bootstrap_quantile(pair, BootstrapConfig("nonparametric", draws, 0.1, 10))
        for sample in est.samples:
            v = round(sample, 12)
            assert v in counts
            counts[v] += 1
        for v, multiplicity in outcomes.items():
            p = multiplicity / 27
            se = math.sqrt(p * (1 - p) / draws)
            assert abs(counts[v] / draws - p) <= 5 * se


class TestMultinomialWeights:
    def test_identity_counts_give_zero(self):
        pair = make_pair(4, 2, 3, seed=9)
        counts = np.ones(4)
        assert multiplier_error(pair, counts - 1.0) == 0.0

    def test_pairs_with_row_resampling_on_shared_indices(self):
        pair = make_pair(3, 2, 2, seed=10)
        idx = np.array([0, 0, 2])
        counts = np.bincount(idx, minlength=3)
        got = multiplier_error(pair, counts - 1.0)
        want = resample_error(pair, idx)
        assert abs(got - want) <= 1e-12

    def test_pairing_holds_across_random_index_draws(self):
        pair = make_pair(6, 3, 2, seed=11)
        for b in range(50):
            idx = substream(12, b).integers(0, 6, 6)
            counts = np.bincount(idx, minlength=6)
            assert abs(multiplier_error(pair, counts - 1.0) - resample_error(pair, idx)) <= 1e-12

    def test_weight_moments(self):
        # Counts from t balls in t equal bins: weights are centered with
        # variance 1 - 1/t.
        t = 10
        draws = 1_000_000
        counts = np.random.default_rng(13).multinomial(t, np.full(t, 1.0 / t), size=draws)
        xi = counts - 1.0
        mean_se = xi.std(axis=0, ddof=1) / math.sqrt(draws)
        assert (np.abs(xi.mean(axis=0)) <= 5 * mean_se).all()
        sq = xi**2
        sq_se = sq.std(axis=0, ddof=1) / math.sqrt(draws)
        assert (np.abs(sq.mean(axis=0) - (1 - 1 / t)) <= 5 * sq_se).all()


class TestEmpiricalQuantile:
    def test_single_sample(self):
        for p in (0.01, 0.5, 0.99):
            assert empirical_quantile([5.0], p) == 5.0

    def test_interpolation_rule_on_twenty_values(self):
        samples = list(range(20))
        assert empirical_quantile(samples, 0.99) == pytest.approx(18.81, abs=1e-12)

    def test_median_of_three(self):
        assert empirical_quantile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_monotone_in_p(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            samples = rng.standard_normal(int(rng.integers(1, 40)))
            ps = np.sort(rng.uniform(0.01, 0.99, 5))
            qs = [empirical_quantile(samples, p) for p in ps]
            assert all(q2 >= q1 for q1, q2 in zip(qs, qs[1:]))

    def test_against_numpy_linear_rule(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            samples = rng.standard_normal(int(rng.integers(2, 50)))
            p = float(rng.uniform(0.01, 0.99))
            got = empirical_quantile(samples, p)
            want = float(np.quantile(samples, p, method="linear"))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            empirical_quantile([], 0.5)
        with pytest.raises(ValueError):
            empirical_quantile([1.0], 0.0)
        with pytest.raises(ValueError):
            empirical_quantile([1.0], 1.0)
        with pytest.raises(ValueError):
            empirical_quantile([1.0, float("nan")], 0.5)


def reference_bootstrap(pair: SketchPair, cfg: BootstrapConfig) -> float:
    """Independent re-implementation: explicit diagonal weights, manual quantile."""
    t = pair.t
    values = []
    for b in range(cfg.replicates):
        xi = substream(cfg.seed, b).standard_normal(t)
        w = np.diag(np.full(t, xi.mean()) - xi)
        m = pair.a_sketch.array.T @ (w @ pair.b_sketch.array)
        values.append(float(np.abs(m).max()))
    values.sort()
    pos = (len(values) - 1) * (1.0 - cfg.alpha)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (pos - lo) * (values[hi] - values[lo])


class TestBootstrapQuantile:
    def test_zero_sketch_estimate_is_zero(self):
        t = 6
        pair = SketchPair(
            DenseMatrix(np.zeros((t, 2))),
            DenseMatrix(np.ones((t, 2))),
            SketchSpec(SketchKind.GAUSSIAN, t, 0),
            source_rows=12,
        )
        cfg = BootstrapConfig(BootstrapScheme.MULTIPLIER, 20, 0.01, 3)
        est = bootstrap_quantile(pair, cfg)
        assert est.value == 0.0
        assert est.t0 == t

    def test_matches_independent_reference(self):
        pair = make_pair(12, 3, 2, seed=20)
        cfg = BootstrapConfig(BootstrapScheme.MULTIPLIER, 20, 0.01, 77)
        est = bootstrap_quantile(pair, cfg)
        assert est.value == reference_bootstrap(pair, cfg)

    def test_value_rederivable_from_samples(self):
        pair = make_pair(9, 2, 2, seed=21)
        cfg = BootstrapConfig(BootstrapScheme.NONPARAMETRIC, 15, 0.05, 5)
        est = bootstrap_quantile(pair, cfg)
        assert est.value == empirical_quantile(est.samples, 1 - cfg.alpha)
        assert len(est.samples) == 15

    @pytest.mark.parametrize("scheme", ["multiplier", "nonparametric"])
    def test_prefix_stability_in_replicates(self, scheme):
        pair = make_pair(8, 2, 2, seed=22)
        small = bootstrap_quantile(pair, BootstrapConfig(scheme, 20, 0.01, 9))
        large = bootstrap_quantile(pair, BootstrapConfig(scheme, 40, 0.01, 9))
        assert large.samples[:20] == small.samples

    def scaled_pair(self, pair: SketchPair, ka: float, kb: float) -> SketchPair:
        return SketchPair(
            DenseMatrix(ka * pair.a_sketch.array),
            DenseMatrix(kb * pair.b_sketch.array),
            pair.spec,
            pair.source_rows,
        )

    def test_scale_equivariance_power_of_two_is_bitwise(self):
        pair = make_pair(10, 3, 2, seed=23)
        cfg = BootstrapConfig("multiplier", 20, 0.01, 11)
        base = bootstrap_quantile(pair, cfg)
        scaled = bootstrap_quantile(self.scaled_pair(pair, 0.5, 2.0), cfg)
        assert scaled.value == 0.5 * 2.0 * base.value
        assert scaled.samples == tuple(s for s in np.array(base.samples))

    @pytest.mark.parametrize("kappa", [3.0, 10.0])
    def test_scale_equivariance_general_factor(self, kappa):
        # General factors scale every sample analytically; binary rounding
        # limits the check to ulp-level agreement.
        pair = make_pair(10, 3, 2, seed=24)
        cfg = BootstrapConfig("multiplier", 20, 0.01, 13)
        base = bootstrap_quantile(pair, cfg)
        scaled = bootstrap_quantile(self.scaled_pair(pair, kappa, 1.0), cfg)
        assert scaled.value == pytest.approx(kappa * base.value, rel=1e-13)

    def test_nonparametric_scheme_dispatch(self):
        pair = make_pair(7, 2, 2, seed=25)
        cfg = BootstrapConfig("nonparametric", 12, 0.1, 2)
        est = bootstrap_quantile(pair, cfg)
        want = tuple(
            multiplier_error(pair, np.bincount(substream(2, b).integers(0, 7, 7), minlength=7) - 1)
            for b in range(12)
        )
        assert est.samples == want

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BootstrapConfig("multiplier", 1, 0.01, 0)
        with pytest.raises(ValueError):
            BootstrapConfig("multiplier", 20, 0.5, 0)
        with pytest.raises(ValueError):
            BootstrapConfig("multiplier", 20, 0.0, 0)
        with pytest.raises(ValueError):
            BootstrapConfig("bogus", 20, 0.01, 0)


class TestExtrapolation:
    def est(self, t0=100, value=0.4) -> QuantileEstimate:
        return QuantileEstimate(t0=t0, alpha=0.01, value=value, samples=(value,))

    def test_identity_at_t0(self):
        e = self.est()
        assert extrapolate(e, e.t0) == e.value

    def test_quadruple_halves(self):
        e = self.est()
        assert extrapolate(e, 4 * e.t0) == e.value / 2

    def test_twenty_fold_target(self):
        e = self.est(t0=500, value=0.12)
        assert extrapolate(e, 10_000) == e.value * math.sqrt(1 / 20)

    def test_strictly_decreasing_and_sqrt_law(self):
        e = self.est(t0=50, value=1.3)
        prev = math.inf
        for t in (50, 80, 200, 1000, 5000):
            q = extrapolate(e, t)
            assert q < prev
            assert q * math.sqrt(t) == pytest.approx(e.value * math.sqrt(e.t0), rel=1e-12)
            prev = q

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            extrapolate(self.est(), 0)


class TestPlanSketchSize:
    def est(self, t0, value) -> QuantileEstimate:
        return QuantileEstimate(t0=t0, alpha=0.01, value=value, samples=(value,))

    def test_zero_estimate_plans_one(self):
        assert plan_sketch_size(self.est(100, 0.0), 0.05) == 1

    def test_equality_case(self):
        assert plan_sketch_size(self.est(100, 0.25), 0.25) == 100

    def test_worked_example(self):
        assert plan_sketch_size(self.est(500, 0.2), 0.05) == 8000

    def test_round_trip_meets_target(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            e = self.est(int(rng.integers(2, 500)), float(rng.uniform(0.01, 2.0)))
            eps = float(rng.uniform(0.001, 0.5))
            t = plan_sketch_size(e, eps)
            assert extrapolate(e, t) <= eps * (1 + 1e-12)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            plan_sketch_size(self.est(10, 0.1), 0.0)

    @pytest.mark.parametrize("value,epsilon", [(1e200, 1e-200), (1e200, 1e-100)])
    def test_non_finite_size_raises(self, value, epsilon):
        with pytest.raises(ValueError, match="not finite"):
            plan_sketch_size(self.est(10, value), epsilon)


class TestBudgetCheck:
    def test_definition_case(self):
        # t = 1 makes the log term vanish; t0 = 1 leaves a unit denominator.
        assert budget_check(1, 1, 1, 5, 3) == 1.0

    def test_ratio_times_denominator_recovers_b(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            b, t, t0, n, d = (int(rng.integers(1, 1000)) for _ in range(5))
            ratio = budget_check(b, t, t0, n, d)
            denom = t / t0 + n * math.log(t) / (d * t0)
            assert ratio * denom == pytest.approx(b, rel=1e-12)

    def test_under_budget_example(self):
        got = budget_check(20, 10_000, 500, 30_000, 1000)
        want = 20 / (10_000 / 500 + 30_000 * math.log(10_000) / (1000 * 500))
        assert got == pytest.approx(want, rel=1e-15)
        assert got == pytest.approx(0.9731123, abs=1e-6)

    def test_over_budget_example(self):
        got = budget_check(1000, 10_000, 500, 30_000, 1000)
        want = 1000 / (10_000 / 500 + 30_000 * math.log(10_000) / (1000 * 500))
        assert got == pytest.approx(want, rel=1e-15)
        assert got == pytest.approx(48.6555962, abs=1e-6)
        assert got > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            budget_check(0, 1, 1, 1, 1)
