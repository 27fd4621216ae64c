"""Bootstrap kernel, quantile, extrapolation, and planning tests."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from sketchguard import booterr, sketch
from sketchguard.booterr import (
    BOOT_STREAM_KEY,
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
from sketchguard.sketch import SketchKind, SketchPair, SketchSpec, apply_spec, gaussian_sketch


def make_pair(t: int, d: int, dp: int, seed: int = 0) -> SketchPair:
    rng = np.random.default_rng(seed)
    return SketchPair(
        DenseMatrix(rng.standard_normal((t, d))),
        DenseMatrix(rng.standard_normal((t, dp))),
        SketchSpec(SketchKind.GAUSSIAN, t, 0),
        source_rows=100,
    )


from helpers import broadcast_multiplier_error, dyad_form_error, resample_error  # noqa: E402


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
        xi = substream(4, BOOT_STREAM_KEY).standard_normal((5, 1))
        assert multiplier_error(pair, xi).tolist() == [0.0] * 5

    @pytest.mark.parametrize("scheme", list(BootstrapScheme))
    def test_single_row_sketch_is_refused(self, scheme):
        # every replicate of one row cancels exactly, so a bound of 0 would say nothing
        with pytest.raises(ValueError, match="at least 2 rows, got 1"):
            bootstrap_quantile(make_pair(1, 3, 2, seed=2), BootstrapConfig(scheme, 5, 0.1, 4))
        assert bootstrap_quantile(make_pair(2, 3, 2), BootstrapConfig(scheme, 5, 0.1, 4)).value > 0

    def test_matches_dyad_form_with_fixed_weights(self):
        pair = make_pair(8, 3, 2, seed=3)
        xi = substream(9, 0).standard_normal(8)
        got = multiplier_error(pair, xi[None])
        want = dyad_form_error(pair, xi)
        assert got.shape == (1,)
        assert abs(got[0] - want) <= 1e-12

    def test_dyad_form_equivalence_random_instances(self):
        rng = np.random.default_rng(5)
        for trial in range(25):
            t = int(rng.integers(2, 33))
            pair = make_pair(t, int(rng.integers(1, 7)), int(rng.integers(1, 7)), seed=trial)
            xi = substream(6, trial).standard_normal((4, t))
            want = [dyad_form_error(pair, row) for row in xi]
            assert np.abs(multiplier_error(pair, xi) - want).max() <= 1e-12

    def test_weight_shape_validated(self):
        pair = make_pair(4, 2, 2)
        for shape in ((2, 3), (4,), (1, 2, 4)):
            with pytest.raises(ValueError, match=r"shape \(B, 4\)"):
                multiplier_error(pair, np.zeros(shape))


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
        gen = substream(1, BOOT_STREAM_KEY)
        counts = booterr._weights(BootstrapScheme.NONPARAMETRIC, gen, 2, 1)
        assert multiplier_error(pair, counts).tolist() == [0.0, 0.0]

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
        assert multiplier_error(pair, [counts - 1.0])[0] == 0.0

    def test_pairs_with_row_resampling_on_shared_indices(self):
        pair = make_pair(3, 2, 2, seed=10)
        idx = np.array([0, 0, 2])
        counts = np.bincount(idx, minlength=3)
        got = multiplier_error(pair, [counts - 1.0])[0]
        want = resample_error(pair, idx)
        assert abs(got - want) <= 1e-12

    def test_pairing_holds_across_random_index_draws(self):
        pair = make_pair(6, 3, 2, seed=11)
        idx = substream(12, 0).integers(0, 6, (50, 6))
        counts = np.array([np.bincount(row, minlength=6) for row in idx])
        want = [resample_error(pair, row) for row in idx]
        assert np.abs(multiplier_error(pair, counts - 1.0) - want).max() <= 1e-12

    def test_pairing_holds_over_random_shapes(self):
        rng = np.random.default_rng(14)
        for trial in range(20):
            t = int(rng.integers(1, 41))
            pair = make_pair(t, int(rng.integers(1, 71)), int(rng.integers(1, 71)), seed=trial)
            idx = substream(15, trial).integers(0, t, (6, t))
            counts = np.array([np.bincount(row, minlength=t) for row in idx])
            want = [resample_error(pair, row) for row in idx]
            assert np.abs(multiplier_error(pair, counts - 1.0) - want).max() <= 1e-12

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
    for xi in substream(cfg.seed, BOOT_STREAM_KEY).standard_normal((cfg.replicates, t)):
        w = np.diag(np.full(t, xi.mean()) - xi)
        m = pair.a_sketch.array.T @ (w @ pair.b_sketch.array)
        values.append(float(np.abs(m).max()))
    values.sort()
    pos = (len(values) - 1) * (1.0 - cfg.alpha)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (pos - lo) * (values[hi] - values[lo])


def per_replicate_stream_samples(pair: SketchPair, cfg: BootstrapConfig) -> np.ndarray:
    """The earlier sampler's layout: replicate b drew its weights from stream (seed, b)."""
    t = pair.t
    rows = []
    for b in range(cfg.replicates):
        gen = substream(cfg.seed, b)
        if cfg.scheme is BootstrapScheme.MULTIPLIER:
            rows.append(gen.standard_normal(t))
        else:
            rows.append(np.bincount(gen.integers(0, t, t), minlength=t) - 1.0)
    return multiplier_error(pair, np.array(rows))


def ks_distance(x, y) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: largest gap between empirical CDFs."""
    x, y = np.sort(x), np.sort(y)
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / x.size
    fy = np.searchsorted(y, grid, side="right") / y.size
    return float(np.abs(fx - fy).max())


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

    @pytest.mark.parametrize("scheme", list(BootstrapScheme))
    def test_prefix_stability_over_random_shapes(self, scheme):
        rng = np.random.default_rng(26)
        for trial in range(10):
            t, d, dp = (int(v) for v in rng.integers(1, 71, 3))
            pair = make_pair(max(t, 2), d, dp, seed=trial)
            k = int(rng.integers(2, 40))
            small = bootstrap_quantile(pair, BootstrapConfig(scheme, k, 0.05, trial))
            large = bootstrap_quantile(pair, BootstrapConfig(scheme, 40, 0.05, trial))
            assert large.samples[:k] == small.samples, (t, d, dp, k)

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
        idx = substream(2, BOOT_STREAM_KEY).integers(0, 7, (12, 7))
        counts = np.array([np.bincount(row, minlength=7) for row in idx])
        assert est.samples == tuple(multiplier_error(pair, counts - 1))

    @pytest.mark.parametrize("scheme", list(BootstrapScheme))
    def test_samples_match_per_replicate_stream_distribution(self, scheme):
        # One stream read row-major must give the same sample law as one
        # stream per replicate: a two-sample KS test at level 0.001, where
        # the critical distance for two samples of B is 1.949 sqrt(2 / B).
        pair = make_pair(10, 3, 2, seed=30)
        replicates = 4000
        new = bootstrap_quantile(pair, BootstrapConfig(scheme, replicates, 0.05, 31)).samples
        old = per_replicate_stream_samples(pair, BootstrapConfig(scheme, replicates, 0.05, 32))
        assert ks_distance(new, old) <= 1.949 * math.sqrt(2 / replicates)

    @pytest.mark.parametrize("scheme", list(BootstrapScheme))
    def test_samples_do_not_depend_on_block_size(self, scheme, monkeypatch):
        pair = make_pair(9, 3, 2, seed=33)
        cfg = BootstrapConfig(scheme, 50, 0.05, 34)
        whole = bootstrap_quantile(pair, cfg)
        # blocks of one, three and seven replicates: each holds max(t, d) d' = 18 per replicate
        for cap in (1, 3 * 18, 7 * 18 + 17):
            monkeypatch.setattr(booterr, "MAX_BLOCK_ENTRIES", cap)
            assert bootstrap_quantile(pair, cfg).samples == whole.samples
            prefix = bootstrap_quantile(pair, replace(cfg, replicates=23))
            assert prefix.samples == whole.samples[:23]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BootstrapConfig("multiplier", 1, 0.01, 0)
        with pytest.raises(ValueError):
            BootstrapConfig("multiplier", 20, 0.5, 0)
        with pytest.raises(ValueError):
            BootstrapConfig("multiplier", 20, 0.0, 0)
        with pytest.raises(ValueError):
            BootstrapConfig("bogus", 20, 0.01, 0)


def one_matrix_shapes(seed: int):
    """Seeded (t, d) shapes with b is a: one group below d = 32, uneven splits above."""
    rng = np.random.default_rng(seed)
    for d in (1, 5, 16, 31, 32, 33, 47, 50, 64, 70, *rng.integers(1, 71, 4)):
        yield int(rng.integers(2, 41)), int(d)


def one_matrix_pair(t: int, d: int, seed: int) -> SketchPair:
    m = DenseMatrix(np.random.default_rng(seed).standard_normal((t, d)))
    return SketchPair(m, m, SketchSpec(SketchKind.GAUSSIAN, t, 0), source_rows=100)


class TestOneMatrixPair:
    """A pair whose sketches are one matrix is scored over its upper block triangle."""

    def test_multiplier_kernel_matches_dyad_form(self):
        for trial, (t, d) in enumerate(one_matrix_shapes(40)):
            pair = one_matrix_pair(t, d, trial)
            xi = substream(41, trial).standard_normal((2, t))
            want = [dyad_form_error(pair, row) for row in xi]
            assert np.abs(multiplier_error(pair, xi) - want).max() <= 1e-12, (t, d)

    def test_resampling_counts_match_joint_row_resampling(self):
        for trial, (t, d) in enumerate(one_matrix_shapes(42)):
            pair = one_matrix_pair(t, d, trial)
            idx = substream(43, trial).integers(0, t, (8, t))
            counts = np.array([np.bincount(row, minlength=t) for row in idx])
            want = [resample_error(pair, row) for row in idx]
            assert np.abs(multiplier_error(pair, counts - 1.0) - want).max() <= 1e-12, (t, d)

    def test_triangle_matches_the_full_product_of_a_copy(self):
        for trial, (t, d) in enumerate(one_matrix_shapes(44)):
            pair = one_matrix_pair(t, d, trial)
            twin = replace(pair, b_sketch=DenseMatrix(pair.a_sketch.array))
            xi = substream(45, trial).standard_normal((16, t))
            got, full = multiplier_error(pair, xi), multiplier_error(twin, xi)
            if d < 32:
                assert np.array_equal(got, full), (t, d)
            np.testing.assert_allclose(got, full, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("scheme", list(BootstrapScheme))
    def test_samples_do_not_depend_on_block_size(self, scheme, monkeypatch):
        for trial, (t, d) in enumerate(one_matrix_shapes(46)):
            pair = one_matrix_pair(t, d, trial)
            cfg = BootstrapConfig(scheme, 25, 0.05, trial)
            whole = bootstrap_quantile(pair, cfg)
            per_replicate = max(t, d) * d
            for cap in (1, 3 * per_replicate, 7 * per_replicate + 1):
                monkeypatch.setattr(booterr, "MAX_BLOCK_ENTRIES", cap)
                assert bootstrap_quantile(pair, cfg).samples == whole.samples, (t, d, cap)
            monkeypatch.undo()

    @pytest.mark.parametrize("scheme", list(BootstrapScheme))
    @pytest.mark.parametrize("kind", list(SketchKind))
    def test_samples_are_prefix_stable_in_b_for_every_kind(self, kind, scheme):
        rng = np.random.default_rng(47)
        for trial in range(3):
            n, d, t = int(rng.integers(64, 200)), int(rng.integers(1, 71)), int(rng.integers(2, 41))
            m = DenseMatrix(rng.standard_normal((n, d)))
            pair = apply_spec(m, m, SketchSpec(kind, t, trial))
            assert pair.b_sketch is pair.a_sketch
            k = int(rng.integers(2, 30))
            small = bootstrap_quantile(pair, BootstrapConfig(scheme, k, 0.05, trial))
            large = bootstrap_quantile(pair, BootstrapConfig(scheme, 60, 0.05, trial))
            assert large.samples[:k] == small.samples, (n, d, t, k)


def kernel_pairs(seed: int):
    """One- and two-matrix pairs over d in {1, 5, 16, 31, 32, 64, 80}, t below and above d.

    Each sketch has a zero row and some -0.0 entries, so some products are +-0.0.
    """
    rng = np.random.default_rng(seed)
    for d in (1, 5, 16, 31, 32, 64, 80):
        for t in (max(2, d // 2), d + int(rng.integers(1, 9))):
            a, b = rng.standard_normal((t, d)), rng.standard_normal((t, int(rng.integers(1, 81))))
            for m in (a, b):
                m[rng.integers(t)] = 0.0
                m[rng.random(m.shape) < 0.05] = -0.0
            spec = SketchSpec(SketchKind.GAUSSIAN, t, 0)
            one = DenseMatrix(a)
            yield SketchPair(one, one, spec, source_rows=100)
            yield SketchPair(DenseMatrix(a), DenseMatrix(b), spec, source_rows=100)


class TestKernelBits:
    """multiplier_error equals the broadcast formulation bit for bit."""

    def test_fixed_weights_match_the_broadcast_kernel(self):
        rng = np.random.default_rng(48)
        for pair in kernel_pairs(49):
            t = pair.t
            normal = rng.standard_normal((5, t))
            counts = np.array([np.bincount(rng.integers(0, t, t), minlength=t) for _ in range(5)])
            # a constant row weights every row of B~ by zero, and counts of 1 weight theirs so
            constant = np.full((1, t), 3.0)
            for w in (normal, counts - 1, constant, counts):
                got, want = multiplier_error(pair, w), broadcast_multiplier_error(pair, w)
                assert got.tobytes() == want.tobytes(), (t, pair.a_sketch.cols, pair.b_sketch.cols)
            assert multiplier_error(pair, constant).tolist() == [0.0]

    @pytest.mark.parametrize("scheme", list(BootstrapScheme))
    def test_samples_across_a_block_boundary_match_the_broadcast_kernel(self, scheme):
        for trial, pair in enumerate(kernel_pairs(50)):
            t, da, db = pair.t, pair.a_sketch.cols, pair.b_sketch.cols
            block = max(1, booterr.MAX_BLOCK_ENTRIES // (max(t, da) * db))
            cfg = BootstrapConfig(scheme, block + 3, 0.05, trial)
            w = booterr._weights(scheme, substream(cfg.seed, BOOT_STREAM_KEY), cfg.replicates, t)
            want = broadcast_multiplier_error(pair, w)
            assert bootstrap_quantile(pair, cfg).samples == tuple(want.tolist()), (t, da, db)


class TestStreamsIndependentOfSketch:
    """A sketch and a bootstrap given the same seed must not share draws."""

    @pytest.mark.parametrize("kind", list(SketchKind))
    def test_sketch_and_bootstrap_read_disjoint_streams(self, kind, monkeypatch):
        seed = 5
        opened = {"sketch": set(), "boot": set()}

        def spy(which):
            def wrapped(s, *key):
                opened[which].add((s, key))
                return substream(s, *key)
            return wrapped

        monkeypatch.setattr(sketch, "substream", spy("sketch"))
        monkeypatch.setattr(booterr, "substream", spy("boot"))
        m = DenseMatrix(np.random.default_rng(0).standard_normal((32, 3)))
        pair = apply_spec(m, m, SketchSpec(kind, 6, seed))
        bootstrap_quantile(pair, BootstrapConfig("multiplier", 10, 0.05, seed))
        assert opened["sketch"] and opened["boot"]
        assert opened["sketch"].isdisjoint(opened["boot"])

    def test_multiplier_weights_are_not_entries_of_gaussian_s(self, monkeypatch):
        n, t, seed = 40, 5, 1
        eye = DenseMatrix(np.eye(n))
        pair = gaussian_sketch(eye, eye, t, seed)
        draws = (pair.a_sketch.array * math.sqrt(t)).ravel()  # the normals behind S
        seen = []

        def spy(p, w):
            seen.append(np.array(w))
            return multiplier_error(p, w)

        monkeypatch.setattr(booterr, "multiplier_error", spy)
        bootstrap_quantile(pair, BootstrapConfig("multiplier", 30, 0.05, seed))
        weights = np.concatenate(seen).ravel()
        assert np.abs(weights - draws[: weights.size]).min() > 1e-9


class TestQuantileEstimateType:
    @pytest.mark.parametrize(
        "t0,samples,message",
        [
            (0, (0.5,), "t0 must be at least 1"),
            (4, (), "samples must be a nonempty 1-D collection"),
            (4, (0.5, -0.5), "nonnegative"),
            (4, ((0.5,), (0.25,)), "samples must be a nonempty 1-D collection"),
            (4, (0.5, math.inf), "samples must be finite"),
        ],
        ids=["t0-zero", "no-samples", "negative-sample", "nested-samples", "infinite-sample"],
    )
    def test_rejects_invalid_fields(self, t0, samples, message):
        with pytest.raises(ValueError, match=message):
            QuantileEstimate(t0=t0, alpha=0.01, samples=samples)

    @pytest.mark.parametrize("samples", [np.array([1.0, 2.0, 0.5]), [1, 2, 0.5],
                                         np.array([1, 2, 0.5], dtype=np.float32)],
                             ids=["array", "list", "float32"])
    def test_samples_are_kept_as_a_tuple_of_floats(self, samples):
        est = QuantileEstimate(4, 0.1, samples)
        assert est.samples == (1.0, 2.0, 0.5)
        assert all(type(s) is float for s in est.samples)
        twin = QuantileEstimate(4, 0.1, (1.0, 2.0, 0.5))
        assert est == twin and hash(est) == hash(twin)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.7, 1.0, 1.5, -0.5, math.nan])
    def test_alpha_outside_the_bootstrap_range_is_named(self, alpha):
        # the range BootstrapConfig takes, checked before any quantile is taken
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1/2\), got "):
            QuantileEstimate(4, alpha, (1.0, 2.0))
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1/2\), got "):
            BootstrapConfig(BootstrapScheme.MULTIPLIER, 20, alpha, 0)


class TestCoverageCeiling:
    @pytest.mark.parametrize("replicates,alpha,ceiling", [(20, 0.01, 0.943), (200, 0.1, 0.896)])
    def test_ceiling_matches_simulated_coverage(self, replicates, alpha, ceiling):
        # B samples and one fresh error from one law; for the uniform law the
        # interpolated quantile's mean coverage is exactly h/(B + 1)
        trials = 4000
        draws = np.random.default_rng(51).random((trials, replicates + 1))
        ests = [QuantileEstimate(4, alpha, row[:replicates]) for row in draws]
        covered = np.mean([row[-1] <= est.value for row, est in zip(draws, ests)])
        got = ests[0].coverage_ceiling
        assert round(got, 3) == ceiling
        assert got == ((replicates - 1) * (1 - alpha) + 1) / (replicates + 1)
        assert abs(covered - got) <= 3 * math.sqrt(got * (1 - got) / trials)


class TestExtrapolation:
    def est(self, t0=100, value=0.4) -> QuantileEstimate:
        return QuantileEstimate(t0=t0, alpha=0.01, samples=(value,))

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
        return QuantileEstimate(t0=t0, alpha=0.01, samples=(value,))

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
        # a zero estimate plans 1 only for a valid epsilon; NaN is not one
        for value, epsilon in itertools.product((0.1, 0.0), (0.0, -0.5, math.nan)):
            with pytest.raises(ValueError, match="epsilon must be positive"):
                plan_sketch_size(self.est(10, value), epsilon)

    @pytest.mark.parametrize("value,epsilon", [(1e200, 1e-200), (1e200, 1e-100)])
    def test_non_finite_size_raises(self, value, epsilon):
        with pytest.raises(ValueError, match="not finite"):
            plan_sketch_size(self.est(10, value), epsilon)


def test_planned_size_matches_the_power_form_at_practical_scales():
    # the plan squares value / epsilon by one correctly rounded multiply; libm's pow, behind
    # ** 2, rounds some squares the other way, but no planned t moves until t is near 1e15
    rng = np.random.default_rng(61)
    for _ in range(20_000):
        t0, epsilon = int(rng.integers(2, 5001)), 10.0 ** rng.uniform(-4, 0)
        est = QuantileEstimate(t0=t0, alpha=0.01, samples=(10.0 ** rng.uniform(-3, 3) * epsilon,))
        want = max(1, math.ceil(t0 * (est.value / epsilon) ** 2))
        assert plan_sketch_size(est, epsilon) == want, (t0, est.value, epsilon)


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
