"""Dense-matrix foundation tests."""

import math
import warnings

import numpy as np
import pytest

from sketchguard.matcore import (
    DenseMatrix,
    NonFiniteResultError,
    RankDeficiencyError,
    ZeroMatrixError,
    frobenius_norm,
    linf_norm,
    matmul_t,
    reduced_qr,
    spectral_norm,
    stable_rank,
)


def triple_loop_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Naive entry-by-entry evaluation of a-transpose times b."""
    n, d = a.shape
    dp = b.shape[1]
    out = np.zeros((d, dp))
    for j in range(d):
        for k in range(dp):
            acc = 0.0
            for i in range(n):
                acc += a[i, j] * b[i, k]
            out[j, k] = acc
    return out


class TestDenseMatrix:
    def test_basic_shape_and_data(self):
        m = DenseMatrix([[1.0, 2.0], [3.0, 4.0]])
        assert (m.rows, m.cols) == (2, 2)
        assert m.shape == (2, 2)
        assert m.data.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DenseMatrix(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            DenseMatrix(np.zeros((3, 0)))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            DenseMatrix([1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            DenseMatrix([[1.0, bad]])

    def test_immutable(self):
        m = DenseMatrix([[1.0]])
        with pytest.raises(ValueError):
            m.array[0, 0] = 2.0

    def test_equality_is_bitwise(self):
        a = DenseMatrix([[1.0, 2.0]])
        assert a == DenseMatrix([[1.0, 2.0]])
        assert a != DenseMatrix([[1.0, 2.0 + 1e-16]]) or 2.0 == 2.0 + 1e-16


class TestMatmulT:
    def test_orthogonal_columns(self):
        a = DenseMatrix([[1.0], [0.0]])
        b = DenseMatrix([[0.0], [1.0]])
        assert matmul_t(a, b).array.tolist() == [[0.0]]

    def test_identity(self):
        eye = DenseMatrix(np.eye(2))
        assert matmul_t(eye, eye) == eye

    def test_against_triple_loop(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((3, 2))
        got = matmul_t(DenseMatrix(a), DenseMatrix(b)).array
        np.testing.assert_allclose(got, triple_loop_product(a, b), rtol=1e-12)

    def test_triple_loop_agreement_up_to_64(self):
        rng = np.random.default_rng(7)
        for n, d, dp in [(5, 4, 3), (17, 9, 2), (64, 64, 64)]:
            a = rng.standard_normal((n, d))
            b = rng.standard_normal((n, dp))
            got = matmul_t(DenseMatrix(a), DenseMatrix(b)).array
            want = triple_loop_product(a, b)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matmul_t(DenseMatrix(np.ones((3, 2))), DenseMatrix(np.ones((4, 2))))


class TestNonFiniteResults:
    def test_overflowing_product_raises_without_a_warning(self):
        a = DenseMatrix(np.full((4, 2), 1e160))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResultError, match="product A\\^T B is not finite"):
                matmul_t(a, a)

    def test_product_at_the_edge_of_range_is_kept(self):
        a = DenseMatrix(np.full((4, 1), 1e153))
        assert matmul_t(a, a).array[0, 0] == pytest.approx(4e306)

    def test_non_finite_input_stays_a_plain_value_error(self):
        with pytest.raises(ValueError, match="must be finite") as exc:
            DenseMatrix([[1.0, math.inf]])
        assert not isinstance(exc.value, NonFiniteResultError)


class TestNorms:
    def test_linf_zero(self):
        assert linf_norm(DenseMatrix(np.zeros((2, 2)))) == 0.0

    def test_linf_forced(self):
        assert linf_norm(DenseMatrix([[1.0, -3.0], [2.0, 0.5]])) == 3.0

    def test_linf_scan_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((50, 50))
        want = max(abs(a[i, j]) for i in range(50) for j in range(50))
        assert linf_norm(DenseMatrix(a)) == want

    def test_linf_absolute_homogeneity(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 5))
        m = DenseMatrix(a)
        for kappa in (-2.5, 0.5, 3.0):
            assert linf_norm(DenseMatrix(kappa * a)) == abs(kappa) * linf_norm(m)

    def test_frobenius_identity(self):
        assert frobenius_norm(DenseMatrix(np.eye(3))) == pytest.approx(math.sqrt(3), rel=1e-15)

    def test_frobenius_345(self):
        assert frobenius_norm(DenseMatrix([[3.0, 4.0]])) == 5.0

    def test_frobenius_sum_of_squares_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((10, 7))
        want = math.sqrt(sum(x * x for x in a.reshape(-1)))
        assert frobenius_norm(DenseMatrix(a)) == pytest.approx(want, rel=1e-13)

    def test_linf_below_frobenius(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.standard_normal((4, 9))
            m = DenseMatrix(a)
            assert linf_norm(m) <= frobenius_norm(m)


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(DenseMatrix(np.diag([5.0, 1.0]))) == pytest.approx(5.0, rel=1e-9)

    def test_rank_one(self):
        rng = np.random.default_rng(8)
        u = rng.standard_normal(6)
        v = rng.standard_normal(4)
        m = DenseMatrix(np.outer(u, v))
        want = np.linalg.norm(u) * np.linalg.norm(v)
        assert spectral_norm(m) == pytest.approx(want, rel=1e-9)

    def test_against_svd_oracle(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((8, 5))
        want = float(np.linalg.svd(a, compute_uv=False)[0])
        assert spectral_norm(DenseMatrix(a)) == pytest.approx(want, rel=1e-8)

    def test_norm_ordering_invariants(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            a = rng.standard_normal((7, 4))
            m = DenseMatrix(a)
            s = spectral_norm(m)
            f = frobenius_norm(m)
            assert s <= f * (1 + 1e-12)
            assert f <= math.sqrt(4) * s * (1 + 1e-9)

    def test_zero_matrix(self):
        assert spectral_norm(DenseMatrix(np.zeros((3, 2)))) == 0.0


class TestStableRank:
    def test_identity(self):
        assert stable_rank(DenseMatrix(np.eye(4))) == pytest.approx(4.0, rel=1e-9)

    def test_rank_one(self):
        rng = np.random.default_rng(11)
        m = DenseMatrix(np.outer(rng.standard_normal(9), rng.standard_normal(3)))
        assert stable_rank(m) == pytest.approx(1.0, rel=1e-9)

    def test_zero_matrix_errors(self):
        with pytest.raises(ZeroMatrixError):
            stable_rank(DenseMatrix(np.zeros((2, 2))))


class TestReducedQR:
    def test_orthonormal_input_fixed_point(self):
        rng = np.random.default_rng(12)
        q0, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        q, r = reduced_qr(DenseMatrix(q0))
        np.testing.assert_allclose(np.abs(q.array), np.abs(q0), atol=1e-12)
        np.testing.assert_allclose(r.array, np.eye(3), atol=1e-12)

    def test_axis_aligned(self):
        x = DenseMatrix([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        q, r = reduced_qr(x)
        np.testing.assert_allclose(q.array, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(r.array, np.diag([2.0, 3.0]), atol=1e-15)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((20, 5))
        q, r = reduced_qr(DenseMatrix(x))
        gram = q.array.T @ q.array
        assert np.abs(gram - np.eye(5)).max() <= 1e-10
        err = np.linalg.norm(q.array @ r.array - x) / np.linalg.norm(x)
        assert err <= 1e-10

    def test_r_diagonal_nonnegative_and_triangular(self):
        rng = np.random.default_rng(14)
        _, r = reduced_qr(DenseMatrix(rng.standard_normal((9, 4))))
        assert (np.diag(r.array) > 0).all()
        assert np.abs(np.tril(r.array, -1)).max() == 0.0

    def test_rank_deficiency(self):
        col = np.arange(1.0, 6.0)
        x = np.column_stack([col, 2 * col])
        with pytest.raises(RankDeficiencyError):
            reduced_qr(DenseMatrix(x))

    def test_wide_input_rejected(self):
        with pytest.raises(ValueError):
            reduced_qr(DenseMatrix(np.ones((2, 3))))
