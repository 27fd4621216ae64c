"""Sketching operator tests: determinism, unbiasedness, and fast-path exactness."""

import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from sketchguard import sketch
from sketchguard.matcore import DenseMatrix, NonFiniteResultError, matmul_t
from sketchguard.oracle import pair_sampler
from sketchguard.parallel import ENV_VAR, run_indexed, thread_cap, thread_policy
from sketchguard.rng import substream
from sketchguard.sketch import (
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

ALL_KINDS = list(SketchKind)

from helpers import explicit_srht_apply, hadamard, mc_mean_check  # noqa: E402


class TestGaussianSketch:
    def test_zero_input_column(self):
        a = DenseMatrix(np.zeros((10, 1)))
        b = DenseMatrix(np.random.default_rng(0).standard_normal((10, 2)))
        for seed in range(5):
            pair = gaussian_sketch(a, b, 4, seed)
            assert np.abs(pair.a_sketch.array).max() == 0.0

    def test_fixed_seed_is_byte_identical(self):
        rng = np.random.default_rng(1)
        a = DenseMatrix(rng.standard_normal((12, 3)))
        b = DenseMatrix(rng.standard_normal((12, 2)))
        p1 = gaussian_sketch(a, b, 6, 99)
        p2 = gaussian_sketch(a, b, 6, 99)
        assert p1.a_sketch == p2.a_sketch
        assert p1.b_sketch == p2.b_sketch
        assert gaussian_sketch(a, b, 6, 100).a_sketch != p1.a_sketch

    def test_unbiased_mean(self):
        rng = np.random.default_rng(2)
        a = DenseMatrix(rng.standard_normal((64, 4)))
        b = DenseMatrix(rng.standard_normal((64, 4)))
        mc_mean_check(
            lambda i: gaussian_sketch(a, b, 8, i).sketched_product, a, b, draws=2000
        )

    def test_blocked_path_matches_materialized(self, monkeypatch):
        # S is read row-major from the one stream (seed, 0), so shrinking the
        # block size reproduces the same operator; only gemm reassociation may differ.
        rng = np.random.default_rng(3)
        a = DenseMatrix(rng.standard_normal((32, 3)))
        b = DenseMatrix(rng.standard_normal((32, 2)))
        whole = gaussian_sketch(a, b, 10, 5)
        monkeypatch.setattr("sketchguard.sketch.MAX_MATERIALIZED_ENTRIES", 64)
        blocked = gaussian_sketch(a, b, 10, 5)
        np.testing.assert_allclose(
            blocked.a_sketch.array, whole.a_sketch.array, rtol=1e-13, atol=1e-15
        )
        np.testing.assert_allclose(
            blocked.b_sketch.array, whole.b_sketch.array, rtol=1e-13, atol=1e-15
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_sketch(DenseMatrix(np.ones((3, 1))), DenseMatrix(np.ones((4, 1))), 2, 0)

    def test_every_block_cap_reads_one_stream(self, monkeypatch):
        rng = np.random.default_rng(4)
        for trial in range(5):
            n, t = int(rng.integers(5, 40)), int(rng.integers(1, 30))
            a = DenseMatrix(rng.standard_normal((n, 3)))
            b = DenseMatrix(rng.standard_normal((n, 2)))
            seed = int(rng.integers(2**63))
            s = substream(seed, 0).standard_normal((t, n)) / math.sqrt(t)
            for cap in (1, n, 3 * n + 1, t * n, 1 << 24):
                monkeypatch.setattr("sketchguard.sketch.MAX_MATERIALIZED_ENTRIES", cap)
                pair = gaussian_sketch(a, b, t, seed)
                np.testing.assert_allclose(pair.a_sketch.array, s @ a.array, rtol=1e-13)
                np.testing.assert_allclose(pair.b_sketch.array, s @ b.array, rtol=1e-13)


@pytest.fixture
def einsum_calls(monkeypatch):
    """A list that gains one entry per np.einsum call."""
    calls = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *x, **k: calls.append(1) or einsum(*x, **k))
    return calls


class TestLengthSamplingProbs:
    def test_single_nonzero_row(self):
        a = np.zeros((5, 2))
        a[3] = [1.0, 2.0]
        m = DenseMatrix(a)
        probs = length_sampling_probs(m, m)
        assert probs[3] == 1.0
        assert probs.sum() == 1.0

    def test_equal_norm_rows_are_uniform(self):
        a = DenseMatrix(np.vstack([[3.0, 4.0], [-4.0, 3.0], [5.0, 0.0], [0.0, -5.0]]))
        probs = length_sampling_probs(a, a)
        np.testing.assert_allclose(probs, 0.25, rtol=1e-15)

    def test_direct_formula_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal((6, 3))
        weights = [
            math.sqrt(sum(x * x for x in a[i])) * math.sqrt(sum(x * x for x in b[i]))
            for i in range(6)
        ]
        want = np.array(weights) / sum(weights)
        got = length_sampling_probs(DenseMatrix(a), DenseMatrix(b))
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert abs(got.sum() - 1.0) <= 1e-12

    def test_shared_matrix_takes_one_norm_pass_and_same_bits(self, einsum_calls):
        rng = np.random.default_rng(5)
        a = DenseMatrix(rng.standard_normal((300, 7)))
        # fresh copies, so a's own norms are first read by the shared call
        want = length_sampling_probs(DenseMatrix(a.array.copy()), DenseMatrix(a.array.copy()))
        einsum_calls.clear()
        got = length_sampling_probs(a, a)
        assert len(einsum_calls) == 1
        assert np.array_equal(got, want)
        assert np.array_equal(length_sampling_probs(a, a), want)
        assert len(einsum_calls) == 1

    @pytest.mark.parametrize("shared", [True, False], ids=["one-matrix", "two-matrix"])
    def test_repeated_length_sketches_read_each_matrix_once(self, einsum_calls, shared):
        rng = np.random.default_rng(8)
        a = DenseMatrix(rng.standard_normal((400, 6)))
        b = a if shared else DenseMatrix(rng.standard_normal((400, 4)))
        specs = [SketchSpec("length", t, seed) for t, seed in ((16, 1), (16, 2), (40, 3))]
        got = [apply_spec(a, b, spec) for spec in specs]
        assert len(einsum_calls) == (1 if shared else 2)
        for spec, pair in zip(specs, got):
            fresh_a = DenseMatrix(a.array.copy())
            fresh_b = fresh_a if shared else DenseMatrix(b.array.copy())
            want = apply_spec(fresh_a, fresh_b, spec)
            assert pair.a_sketch.array.tobytes() == want.a_sketch.array.tobytes()
            assert pair.b_sketch.array.tobytes() == want.b_sketch.array.tobytes()

    def test_racing_first_reads_of_the_norms_agree(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "2")
        x = np.random.default_rng(9).standard_normal((4096, 16))
        want = length_sampling_probs(DenseMatrix(x), DenseMatrix(x.copy()))
        norms = DenseMatrix(x)._row_norms
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # let the helper thread cut into the first read
        try:
            with thread_policy():
                assert thread_cap() == 2
                for _ in range(5):
                    m = DenseMatrix(x)
                    got = run_indexed(lambda i: length_sampling_probs(m, m), 8)
                    assert all(np.array_equal(probs, want) for probs in got)
                    assert np.array_equal(m._row_norms, norms)
        finally:
            sys.setswitchinterval(interval)

    def test_zero_matrix_errors(self):
        z = DenseMatrix(np.zeros((4, 2)))
        m = DenseMatrix(np.ones((4, 2)))
        with pytest.raises(LengthSamplingError):
            length_sampling_probs(z, m)
        disjoint = DenseMatrix(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(LengthSamplingError):
            length_sampling_probs(disjoint, DenseMatrix(disjoint.array[::-1].copy()))

    def test_underflowing_products_are_a_numerical_failure(self):
        # each row norm squares its entries, so 2^-560 underflows although no row is zero
        a = DenseMatrix(np.random.default_rng(6).standard_normal((512, 8)) * 2.0**-560)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for b in (a, DenseMatrix(a.array[:, ::-1].copy()), a):  # a's norms cached after the first
                with pytest.raises(NonFiniteResultError, match="underflowed"):
                    length_sampling_probs(a, b)


class TestRowSampleSketch:
    def test_single_row_exactness(self):
        a = DenseMatrix([[3.0, -2.0]])
        b = DenseMatrix([[1.0, 4.0]])
        for t in (1, 2, 7):
            pair = row_sample_sketch(a, b, [1.0], t, 11)
            np.testing.assert_allclose(
                pair.sketched_product, matmul_t(a, b).array, rtol=1e-14
            )

    def test_uniform_scaling(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 2))
        m = DenseMatrix(a)
        t = 9
        pair = row_sample_sketch(m, m, np.full(6, 1 / 6), t, 3)
        scaled_rows = a * math.sqrt(6 / t)
        for row in pair.a_sketch.array:
            match = np.isclose(scaled_rows, row, rtol=1e-12).all(axis=1)
            assert match.any()

    def test_unbiased_mean_with_length_probs(self):
        rng = np.random.default_rng(6)
        a = DenseMatrix(rng.standard_normal((6, 2)))
        b = DenseMatrix(rng.standard_normal((6, 2)))
        probs = length_sampling_probs(a, b)
        mc_mean_check(
            lambda i: row_sample_sketch(a, b, probs, 4, i).sketched_product,
            a, b, draws=5000,
        )

    def test_zero_probability_rows_never_selected(self):
        a = DenseMatrix([[1.0], [100.0], [3.0]])
        probs = [0.5, 0.0, 0.5]
        for seed in range(50):
            pair = row_sample_sketch(a, a, probs, 16, seed)
            assert np.abs(pair.a_sketch.array).max() < 50.0

    @pytest.fixture
    def top_uniform(self, monkeypatch):
        # every uniform draw is the largest double below 1; choice takes them from random()
        class Top(np.random.Generator):
            def random(self, size=None, dtype=np.float64, out=None):
                return np.full(size, np.nextafter(1.0, 0.0))

        monkeypatch.setattr(sketch, "substream", lambda *keys: Top(np.random.Philox(0)))

    def test_trailing_zero_probability_row_is_never_selected(self, top_uniform):
        # the cumulative sum of these probabilities stops short of 1
        a = DenseMatrix([[1.0, 2.0], [3.0, 4.0], [1e6, 1e6]])
        probs = [0.5, 0.499999995, 0.0]
        pair = row_sample_sketch(a, a, probs, 4, 0)
        expected = np.tile(a.array[1] * (1.0 / math.sqrt(4 * probs[1])), (4, 1))
        np.testing.assert_array_equal(pair.a_sketch.array, expected)

    def test_length_sampling_skips_a_trailing_zero_row(self, top_uniform):
        x = np.random.default_rng(0).standard_normal((50, 3))
        x[-1] = 0.0
        m = DenseMatrix(x)
        probs = length_sampling_probs(m, m)
        assert np.cumsum(probs)[-2] < 1.0  # the case that picked the zero row
        pair = apply_spec(m, m, SketchSpec(SketchKind.LENGTH_SAMPLE, 4, 0))
        expected = np.tile(x[-2] * (1.0 / math.sqrt(4 * probs[-2])), (4, 1))
        np.testing.assert_array_equal(pair.a_sketch.array, expected)

    def test_invalid_probs(self):
        a = DenseMatrix(np.ones((3, 1)))
        with pytest.raises(ValueError):
            row_sample_sketch(a, a, [0.5, 0.5], 2, 0)
        with pytest.raises(ValueError):
            row_sample_sketch(a, a, [0.9, 0.2, 0.2], 2, 0)
        with pytest.raises(ValueError):
            row_sample_sketch(a, a, [1.2, -0.1, -0.1], 2, 0)
        for bad in (
            [np.nan, 0.5, 0.5],
            [np.inf, 0.0, 0.0],
            [-np.inf, 1.0, 1.0],
            [[0.5, 0.25, 0.25]],  # 2-D
            [0.5, 0.25, 0.25 + 1e-6],  # sum off by 1e-6
        ):
            with pytest.raises(ValueError):
                row_sample_sketch(a, a, bad, 2, 0)


class TestFWHT:
    def test_h2_first_column(self):
        v = np.array([1.0, 0.0])
        out = fwht_in_place(v)
        assert out is v
        assert v.tolist() == [1.0, 1.0]

    def test_h2_on_ones(self):
        v = np.array([1.0, 1.0])
        fwht_in_place(v)
        assert v.tolist() == [2.0, 0.0]

    def test_matches_explicit_matrix(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(16)
        want = hadamard(16) @ v
        got = fwht_in_place(v.copy())
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_length_one_is_identity(self):
        v = np.array([3.5])
        assert fwht_in_place(v).tolist() == [3.5]

    def test_rejects_non_power_of_two(self):
        for n in (3, 5, 6, 12):
            with pytest.raises(ValueError):
                fwht_in_place(np.zeros(n))

    def test_orthogonality_via_basis_vectors(self):
        n = 2
        while n <= 256:
            h = fwht_in_place(np.eye(n))
            gram = (h / math.sqrt(n)) @ (h / math.sqrt(n)).T
            assert np.abs(gram - np.eye(n)).max() <= 1e-12
            n *= 2

    def test_columnwise_on_2d(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((8, 3))
        want = hadamard(8) @ m
        got = fwht_in_place(m.copy())
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("values", [[1.0, 2.0], (1.0, 2.0), np.float64(3.0), np.array(3.0)],
                             ids=["list", "tuple", "numpy-scalar", "0-d-array"])
    def test_rejects_what_it_cannot_transform_in_place(self, values):
        # a list or a scalar has no axis 0 to update; the transform must not pass it back untouched
        with pytest.raises(TypeError):
            fwht_in_place(values)

    VIEWS = {
        "column-strided": lambda m: m[:, ::2],
        "reversed-rows": lambda m: m[::-1, 1:],
        "fortran-strided": lambda m: np.asfortranarray(m)[:, ::3],
        "one-column": lambda m: m[:, 5],
    }

    @pytest.mark.parametrize("view", VIEWS.values(), ids=VIEWS.keys())
    def test_transforms_strided_views_in_place(self, view):
        # each view shares the memory of a larger array, so the result must land there
        m = np.random.default_rng(9).standard_normal((16, 6))
        v = view(m)
        want = hadamard(16) @ v
        assert fwht_in_place(v) is v
        np.testing.assert_allclose(v, want, atol=1e-12)


class TestSRHT:
    def test_single_row_exactness(self):
        a = DenseMatrix([[2.0, -1.0]])
        b = DenseMatrix([[4.0, 0.5]])
        for seed in range(4):
            pair = srht_sketch(a, b, 3, seed)
            np.testing.assert_allclose(
                pair.sketched_product, matmul_t(a, b).array, rtol=1e-14
            )

    def test_explicit_operator_oracle(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((16, 3))
        b = rng.standard_normal((16, 2))
        seed = 21
        pair = srht_sketch(DenseMatrix(a), DenseMatrix(b), 4, seed)
        np.testing.assert_allclose(
            pair.a_sketch.array, explicit_srht_apply(a, 4, seed), atol=1e-12
        )
        np.testing.assert_allclose(
            pair.b_sketch.array, explicit_srht_apply(b, 4, seed), atol=1e-12
        )

    def test_padding_to_next_power_of_two(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((12, 2))
        pair = srht_sketch(DenseMatrix(a), DenseMatrix(a.copy()), 4, 1)
        assert pair.a_sketch.rows == 4
        np.testing.assert_allclose(
            pair.a_sketch.array, explicit_srht_apply(a, 4, 1), atol=1e-12
        )

    def test_unbiased_mean(self):
        rng = np.random.default_rng(11)
        a = DenseMatrix(rng.standard_normal((32, 3)))
        mc_mean_check(
            lambda i: srht_sketch(a, a, 6, i).sketched_product, a, a, draws=5000
        )


def butterfly_srht(x: np.ndarray, t: int, seed: int) -> np.ndarray:
    """SRHT by the full butterfly: sign-flip, pad, transform every row, keep t."""
    n = x.shape[0]
    n_pad = 1 << (n - 1).bit_length()
    signs = substream(seed, 0).integers(0, 2, n_pad) * 2 - 1
    idx = substream(seed, 1).integers(0, n_pad, t)
    work = np.zeros((n_pad, x.shape[1]))
    work[:n] = x * signs[:n, None]
    fwht_in_place(work)
    return work[idx] / math.sqrt(t)


class TestPrunedSRHT:
    """srht_sketch computes only the kept rows; it must equal the full transform."""

    @pytest.mark.parametrize("n", [1, 2, 16, 17, 12, 100])
    @pytest.mark.parametrize("t", [1, 5, 300])
    def test_matches_explicit_operator(self, n, t):
        # t = 300 exceeds every n_pad here, so rows repeat
        rng = np.random.default_rng(n * 1000 + t)
        a = rng.standard_normal((n, 4))
        b = rng.standard_normal((n, 3))
        pair = srht_sketch(DenseMatrix(a), DenseMatrix(b), t, 31)
        for got, x in ((pair.a_sketch.array, a), (pair.b_sketch.array, b)):
            want = explicit_srht_apply(x, t, 31)
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("n,t", [(1, 3), (17, 40), (1000, 75), (8193, 640)])
    def test_twin_inputs_give_bitwise_equal_sketches(self, n, t):
        raw = np.random.default_rng(n).standard_normal((n, 5))
        pair = srht_sketch(DenseMatrix(raw), DenseMatrix(raw.copy()), t, 8)
        assert np.array_equal(pair.a_sketch.array, pair.b_sketch.array)
        alone = srht_sketch(DenseMatrix(raw), DenseMatrix(raw), t, 8)
        assert np.array_equal(pair.a_sketch.array, alone.a_sketch.array)

    @pytest.mark.parametrize("t", [1, 32, 640])
    def test_agrees_with_butterfly_on_8193_rows(self, t):
        rng = np.random.default_rng(t)
        a = rng.standard_normal((8193, 16))
        b = rng.standard_normal((8193, 3))
        pair = srht_sketch(DenseMatrix(a), DenseMatrix(b), t, 12)
        for got, x in ((pair.a_sketch.array, a), (pair.b_sketch.array, b)):
            want = butterfly_srht(x, t, 12)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n", [5, 1000, 3000, 8193, 16385])
    def test_signs_are_a_prefix_of_the_padded_draw(self, n):
        # srht_sketch draws n signs: the first n of the n_pad that D has
        n_pad = 1 << (n - 1).bit_length()
        for seed in (0, 7, 2**64 - 1):
            short = substream(seed, 0).integers(0, 2, n)
            assert np.array_equal(short, substream(seed, 0).integers(0, 2, n_pad)[:n])

    @pytest.mark.parametrize("cap", [None, 1], ids=["default-blocking", "four-panels"])
    def test_matches_explicit_operator_over_random_shapes(self, monkeypatch, cap):
        # heights 2^j + 1 and others; column counts that split into uneven panels
        # (at the least cap, one high part at a time); t from 1 to past n1, so high
        # parts keep several rows each
        if cap is not None:
            monkeypatch.setattr(sketch, "MAX_BLOCK_ENTRIES", cap)
        rng = np.random.default_rng(17)
        for i in range(16):
            n = 2 ** int(rng.integers(0, 10)) + 1 if i % 2 else int(rng.integers(2, 1000))
            n_pad = 1 << (n - 1).bit_length()
            n1 = n_pad >> ((n_pad.bit_length() - 1) // 2)
            t = int(rng.integers(1, 4 * n1 + 2))
            k_a, k_b = (int(k) for k in rng.choice([1, 13, 37, 112], 2))
            a, b = rng.standard_normal((n, k_a)), rng.standard_normal((n, k_b))
            seed = int(rng.integers(2**63))
            pair = srht_sketch(DenseMatrix(a), DenseMatrix(b), t, seed)
            for got, x in ((pair.a_sketch.array, a), (pair.b_sketch.array, b)):
                want = explicit_srht_apply(x, t, seed)
                assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), (n, t)
            twins = srht_sketch(DenseMatrix(a), DenseMatrix(a.copy()), t, seed)
            assert np.array_equal(twins.a_sketch.array, twins.b_sketch.array), (n, k_a, t)
            assert np.array_equal(twins.a_sketch.array, pair.a_sketch.array), (n, k_a, t)

    def test_a_draw_holds_less_than_its_data(self):
        # the srht-libsvm benchmark's largest draw: 8193 x 64 at t = 640
        n, k = 8193, 64
        a = DenseMatrix(np.random.default_rng(5).standard_normal((n, k)))
        tracemalloc.start()
        try:
            srht_sketch(a, a, 640, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * k * 8

    def test_stage_blocking_does_not_change_the_sketch(self, monkeypatch):
        from sketchguard import sketch

        a = DenseMatrix(np.random.default_rng(3).standard_normal((1000, 6)))
        whole = srht_sketch(a, a, 200, 4).a_sketch.array
        monkeypatch.setattr(sketch, "MAX_BLOCK_ENTRIES", 1)
        one_high_part_at_a_time = srht_sketch(a, a, 200, 4).a_sketch.array
        np.testing.assert_allclose(one_high_part_at_a_time, whole, rtol=0, atol=1e-12)
        np.testing.assert_allclose(whole, butterfly_srht(a.array, 200, 4), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4, 64, 128, 1024])
    def test_hadamard_rows_are_the_explicit_matrix_rows(self, n):
        # closed form (-1)^popcount(i & j), against the doubling recursion; rows unsorted
        # and repeated, as np.unique's outputs never are
        rows = np.random.default_rng(n).integers(0, n, 2 * n + 3)
        got = sketch._hadamard_rows(n, rows)
        assert got.dtype == np.float64
        assert np.array_equal(got, hadamard(n)[rows])
        assert np.array_equal(sketch._hadamard_rows(n, np.arange(n)[::-1]), hadamard(n)[::-1])

    def test_experiment_csv_does_not_depend_on_thread_count(self, tmp_path, monkeypatch):
        from sketchguard.cli import main

        argv = ["experiment", "--synth", "1025,8,high", "--kind", "srht", "--t-grid", "4,16,64",
                "--alpha", "0.1", "--oracle-reps", "20", "--reps", "10", "--seed", "3"]
        monkeypatch.setenv("SKETCHGUARD_THREADS", "1")
        assert main(argv + ["--out", str(tmp_path / "serial.csv")]) == 0
        monkeypatch.setenv("SKETCHGUARD_THREADS", "2")
        assert main(argv + ["--out", str(tmp_path / "pooled.csv")]) == 0
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "pooled.csv").read_bytes()

    def test_multi_panel_experiment_csv_does_not_depend_on_thread_count(self, tmp_path,
                                                                        monkeypatch):
        # at 8193 x 64 each draw runs four column panels and, at t = 640, several chunks
        from sketchguard.cli import main

        argv = ["experiment", "--synth", "8193,64,high", "--kind", "srht", "--oracle-reps", "20",
                "--reps", "10", "--seed", "1"]
        for threads in ("1", "2"):
            monkeypatch.setenv("SKETCHGUARD_THREADS", threads)
            assert main(argv + ["--out", str(tmp_path / f"{threads}.csv")]) == 0
        assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()


class TestNonFiniteSketches:
    def test_overflowing_sketched_product_raises(self):
        big = DenseMatrix(np.full((4, 2), 1e160))
        pair = SketchPair(big, big, SketchSpec(SketchKind.GAUSSIAN, 4, 0), 8)
        with pytest.raises(NonFiniteResultError, match="sketched product"):
            pair.sketched_product

    def test_overflowing_sketch_raises(self):
        # row sampling rescales by sqrt(n / t) = 2, past the largest double
        a = DenseMatrix(np.full((8, 1), 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResultError):
                apply_spec(a, a, SketchSpec(SketchKind.UNIFORM_SAMPLE, 2, 0))

    @pytest.mark.parametrize(
        "sketcher",
        [*(lambda a, k=k: apply_spec(a, a, SketchSpec(k, 2, 0)) for k in ALL_KINDS),
         lambda a: pair_sampler(a, a, SketchKind.SRHT)(2, 0)],
        ids=[k.value for k in ALL_KINDS] + ["srht-sampler"],
    )
    def test_overflowing_sketch_raises_for_every_kind(self, sketcher):
        # each sketch row mixes or rescales 64 rows of 1e308 past the largest
        # double; length sampling overflows earlier, in its weights
        a = DenseMatrix(np.full((64, 1), 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResultError):
                sketcher(a)

    @pytest.mark.parametrize(
        "kind, shape",
        [(SketchKind.GAUSSIAN, (64, 1)), (SketchKind.UNIFORM_SAMPLE, (8, 1)), (SketchKind.SRHT, (8, 2))],
        ids=["gaussian", "uniform", "srht"],
    )
    def test_overflowing_sketch_names_the_sketch(self, kind, shape):
        a = DenseMatrix(np.full(shape, 1e308))
        with pytest.raises(NonFiniteResultError, match="^the sketch is not finite"):
            apply_spec(a, a, SketchSpec(kind, 2, 1))

    def test_overflowing_length_weights_raise(self):
        # every weight is about 1e308, finite, but their sum is not
        a = DenseMatrix(np.full((8, 1), 1e154))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):  # the norms' first read, then the cached ones
                with pytest.raises(NonFiniteResultError, match="length-sampling weights"):
                    length_sampling_probs(a, a)


class TestSketchedProduct:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
    @pytest.mark.parametrize("shared", [True, False], ids=["one-matrix", "two-matrix"])
    def test_is_the_exact_product_of_the_sketches_read_only_and_cached(self, kind, shared):
        rng = np.random.default_rng(4)
        a = DenseMatrix(rng.standard_normal((40, 3)))
        b = a if shared else DenseMatrix(rng.standard_normal((40, 5)))
        pair = apply_spec(a, b, SketchSpec(kind, 12, 2))
        product = pair.sketched_product
        np.testing.assert_array_equal(product, matmul_t(pair.a_sketch, pair.b_sketch).array)
        assert not product.flags.writeable
        assert pair.sketched_product is product


class TestApplySpec:
    def test_gaussian_dispatch(self):
        rng = np.random.default_rng(12)
        a = DenseMatrix(rng.standard_normal((10, 2)))
        b = DenseMatrix(rng.standard_normal((10, 2)))
        spec = SketchSpec(SketchKind.GAUSSIAN, 8, 7)
        direct = gaussian_sketch(a, b, 8, 7)
        via = apply_spec(a, b, spec)
        assert via.a_sketch == direct.a_sketch
        assert via.spec == spec

    def test_length_on_zero_matrix_errors(self):
        z = DenseMatrix(np.zeros((6, 2)))
        with pytest.raises(LengthSamplingError):
            apply_spec(z, z, SketchSpec(SketchKind.LENGTH_SAMPLE, 3, 0))

    def test_srht_pads_and_returns_requested_rows(self):
        rng = np.random.default_rng(13)
        a = DenseMatrix(rng.standard_normal((12, 2)))
        pair = apply_spec(a, a, SketchSpec(SketchKind.SRHT, 4, 1))
        assert pair.a_sketch.rows == 4
        assert pair.source_rows == 12

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_shared_realization_couples_the_pair(self, kind):
        rng = np.random.default_rng(14)
        raw = rng.standard_normal((16, 3))
        a = DenseMatrix(raw)
        same = apply_spec(a, a, SketchSpec(kind, 5, 2))
        assert same.a_sketch == same.b_sketch
        twin = apply_spec(a, DenseMatrix(raw.copy()), SketchSpec(kind, 5, 2))
        assert twin.a_sketch == twin.b_sketch

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_determinism_per_kind(self, kind):
        rng = np.random.default_rng(15)
        a = DenseMatrix(rng.standard_normal((16, 3)))
        b = DenseMatrix(rng.standard_normal((16, 2)))
        p1 = apply_spec(a, b, SketchSpec(kind, 6, 42))
        p2 = apply_spec(a, b, SketchSpec(kind, 6, 42))
        assert p1.a_sketch == p2.a_sketch
        assert p1.b_sketch == p2.b_sketch

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SketchSpec(SketchKind.GAUSSIAN, 0, 0)
        with pytest.raises(ValueError):
            SketchSpec(SketchKind.GAUSSIAN, 2, -1)
        with pytest.raises(ValueError):
            SketchSpec("nonsense", 2, 0)
        assert SketchSpec("srht", 2, 0).kind is SketchKind.SRHT
