"""Synthetic matrix generation and LIBSVM parsing tests."""

import math
import tracemalloc

import numpy as np
import pytest

from helpers import linf_norm, stable_rank
from sketchguard import datagen
from sketchguard.datagen import (
    FeatureIndexRangeError,
    LibsvmParseError,
    MalformedTokenError,
    NonIncreasingIndexError,
    RankMode,
    SynthProfile,
    libsvm_load,
    mvt_rows,
    normalize_gram_linf,
    singular_value_profile,
    synth_matrix,
)
from sketchguard.matcore import DenseMatrix, ZeroMatrixError, matmul_t
from sketchguard.parallel import openblas_threads
from sketchguard.rng import derive_seed, substream


def positive_q(x: np.ndarray) -> np.ndarray:
    """Q = X R^-1, R^T the Cholesky factor of X^T X: the one QR whose R has a positive diagonal."""
    return np.linalg.solve(np.linalg.cholesky(x.T @ x), x.T).T


def synth_by_definition(p: SynthProfile, q=positive_q) -> np.ndarray:
    """synth_matrix's entries computed from its definition, with ``q`` as the factoring."""
    x = mvt_rows(p.n, p.d, 2.0, derive_seed(p.seed, 0, 0)).array
    g = substream(derive_seed(p.seed, 1, 0)).standard_normal((p.d, p.d))
    sigma = singular_value_profile(p.rank_mode, p.d)
    return normalize_gram_linf(DenseMatrix((q(x) * sigma) @ q(g).T)).array


def libsvm_write(path, matrix: DenseMatrix, labels=None) -> None:
    """Test utility: write a dense matrix in LIBSVM text form, skipping zeros."""
    if labels is None:
        labels = [1.0] * matrix.rows
    with open(path, "w", encoding="utf-8") as fh:
        for label, row in zip(labels, matrix.array):
            toks = [repr(float(label))]
            toks += [f"{j + 1}:{float(v)!r}" for j, v in enumerate(row) if v != 0.0]
            fh.write(" ".join(toks) + "\n")


class TestMvtRows:
    def test_scale_matrix_factorization(self):
        # The AR-structured scale matrix is SPD; its Cholesky factor must
        # reconstruct it, and the diagonal is constant 2.
        d = 8
        idx = np.arange(d)
        scale = 2.0 * 0.5 ** np.abs(idx[:, None] - idx[None, :])
        assert (np.diag(scale) == 2.0).all()
        chol = np.linalg.cholesky(scale)
        assert np.abs(chol @ chol.T - scale).max() <= 1e-10

    def test_heavy_tailed_but_finite(self):
        m = mvt_rows(2000, 8, 2.0, seed=3)
        med = float(np.median(np.abs(m.array)))
        assert math.isfinite(med) and med > 0.0

    def test_scalar_t_median(self):
        m = mvt_rows(100_000, 1, 2.0, seed=4)
        got = float(np.median(np.abs(m.array)))
        oracle = np.random.default_rng(99).standard_t(2.0, 100_000)
        want = math.sqrt(2.0) * float(np.median(np.abs(oracle)))
        assert abs(got - want) <= 0.2 * want
        # closed form for reference: sqrt(2) times the t(2) upper quartile
        assert abs(got - 2.0 / math.sqrt(3.0)) <= 0.2 * want

    def test_reproducible(self):
        assert mvt_rows(50, 3, 2.0, seed=5) == mvt_rows(50, 3, 2.0, seed=5)
        assert mvt_rows(50, 3, 2.0, seed=5) != mvt_rows(50, 3, 2.0, seed=6)

    def test_validation(self):
        with pytest.raises(ValueError):
            mvt_rows(0, 3)
        # NaN passes a plain nu <= 0 check, and inf draws infinite chi-square weights
        for nu in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"nu={nu}"):
                mvt_rows(3, 3, nu=nu)

    def test_row_blocks_keep_the_bits_of_one_product(self):
        # the rows are multiplied in blocks; 8193 rows of 64 make several, none small
        n, d, nu, seed = 8193, 64, 2.0, 3
        idx = np.arange(d)
        chol = np.linalg.cholesky(2.0 * 0.5 ** np.abs(idx[:, None] - idx[None, :]))
        g = substream(seed)
        z = g.standard_normal((n, d))
        want = (z @ chol.T) / np.sqrt(g.chisquare(nu, n) / nu)[:, None]
        np.testing.assert_array_equal(mvt_rows(n, d, nu, seed).array, want)


class TestSingularValueProfile:
    def test_low_profile_span(self):
        s = singular_value_profile(RankMode.LOW, 5)
        np.testing.assert_allclose(s, 10.0 ** np.array([0, -1.5, -3, -4.5, -6]), rtol=1e-12)

    def test_high_profile_span(self):
        s = singular_value_profile(RankMode.HIGH, 10)
        assert s[0] == 1.0 and s[-1] == 0.1
        steps = np.diff(s)
        np.testing.assert_allclose(steps, steps[0], rtol=1e-9)

    @pytest.mark.parametrize("mode", list(RankMode))
    def test_single_column_rejected(self, mode):
        with pytest.raises(ValueError, match="d must be at least 2"):
            singular_value_profile(mode, 1)


class TestSynthMatrix:
    def test_gram_normalized(self):
        for mode in (RankMode.LOW, RankMode.HIGH):
            m = synth_matrix(SynthProfile(128, 16, mode, 7))
            gram = matmul_t(m, m)
            assert abs(linf_norm(gram) - 1.0) <= 1e-10

    def test_singular_values_match_profile(self):
        m = synth_matrix(SynthProfile(256, 16, RankMode.LOW, 8))
        got = np.linalg.svd(m.array, compute_uv=False)
        sigma = singular_value_profile(RankMode.LOW, 16)
        scale = got[0] / sigma[0]
        np.testing.assert_allclose(got, scale * sigma, rtol=1e-6)

    def test_stable_rank_matches_profile(self):
        for mode in (RankMode.LOW, RankMode.HIGH):
            sigma = singular_value_profile(mode, 16)
            analytic = float((sigma**2).sum() / sigma.max() ** 2)
            m = synth_matrix(SynthProfile(256, 16, mode, 9))
            assert stable_rank(m) == pytest.approx(analytic, rel=1e-6)

    def test_deterministic(self):
        p = SynthProfile(64, 8, RankMode.HIGH, 10)
        assert synth_matrix(p) == synth_matrix(p)

    def test_factors_are_the_unique_qr_with_positive_r_diagonal(self):
        # Q = X R^-1 with R^T the Cholesky factor of X^T X is the one QR whose
        # R has a positive diagonal, whatever sign convention LAPACK uses.
        for mode in (RankMode.LOW, RankMode.HIGH):
            p = SynthProfile(96, 6, mode, 11)
            want = synth_by_definition(p)
            np.testing.assert_allclose(synth_matrix(p).array, want, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("mode", list(RankMode))
    @pytest.mark.parametrize("d", [8, 64])
    def test_square_profiles_match_the_definition(self, d, mode):
        # n = d gives the worst-conditioned Grams, cond(X) up to about 2e6 at 64 x 64. One
        # Cholesky of X^T X loses cond(X)^2 eps there, so the reference applies the
        # definition twice: X R1^-1 R2^-1 is X R^-1 for R = R2 R1, the same unique R.
        for seed in range(20):
            p = SynthProfile(d, d, mode, seed)
            want = synth_by_definition(p, lambda x: positive_q(positive_q(x)))
            np.testing.assert_allclose(synth_matrix(p).array, want, rtol=0, atol=1e-9)

    def test_factoring_keeps_q_orthonormal_where_plain_cholesky_qr2_breaks_down(self):
        # singular values graded from 1 to 1e-10: the Gram's condition is about 1e20 > 1/eps
        x0 = mvt_rows(500, 20, 2.0, 1).array
        u, _, vt = np.linalg.svd(x0, full_matrices=False)
        x = (u * np.logspace(0, -10, 20)) @ vt
        assert np.linalg.cond(x) > 1e9

        def orthogonality(q):
            return np.abs(q.T @ q - np.eye(20)).max()

        def plain_cholesky_qr2(y):
            for _ in range(2):
                y = np.linalg.solve(np.linalg.cholesky(y.T @ y), y.T).T
            return y

        try:
            assert orthogonality(plain_cholesky_qr2(x)) > 1e-12
        except np.linalg.LinAlgError:
            pass  # its first Gram is not positive definite in floating point
        q = x.copy()
        datagen._positive_qr_times(q, np.eye(20))
        assert orthogonality(q) <= 1e-12
        r = q.T @ x  # the factor R of x = QR: upper triangular with a positive diagonal
        assert np.abs(np.tril(r, -1)).max() <= 1e-12 * np.abs(r).max()
        assert (np.diag(r) > 0).all()

    def test_peak_memory_is_the_result_and_row_blocks(self):
        p = SynthProfile(8192, 64, RankMode.LOW, 5)
        tracemalloc.start()
        try:
            m = synth_matrix(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * m.array.nbytes

    def test_bits_do_not_depend_on_the_openblas_thread_count(self):
        # the Gram products sum over all n rows, where OpenBLAS may split work among threads
        blas = openblas_threads()
        if blas is None:
            pytest.skip("numpy's BLAS exposes no OpenBLAS thread-count functions")
        get, set_ = blas
        p, saved, built = SynthProfile(4096, 64, RankMode.HIGH, 6), get(), []
        try:
            for threads in (1, 2):
                set_(threads)
                built.append(synth_matrix(p).array)
        finally:
            set_(saved)
        np.testing.assert_array_equal(built[0], built[1])

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            SynthProfile(4, 8, RankMode.LOW, 0)
        with pytest.raises(ValueError):
            SynthProfile(8, 1, RankMode.LOW, 0)
        with pytest.raises(ValueError):
            SynthProfile(8, 4, "sideways", 0)


class TestLibsvmLoad:
    def test_basic_fixture(self, tmp_path):
        f = tmp_path / "tiny.txt"
        f.write_text("1 1:0.5 3:2.0\n-1 2:1.0\n", encoding="utf-8")
        m = libsvm_load(f, expected_features=3)
        assert m.array.tolist() == [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]]

    def test_feature_count_inferred_from_max_index(self, tmp_path):
        f = tmp_path / "infer.txt"
        f.write_text("1 1:0.5 3:2.0\n-1 2:1.0\n", encoding="utf-8")
        m = libsvm_load(f)
        assert m.cols == 3

    def test_zero_expected_features_rejected(self, tmp_path):
        f = tmp_path / "tiny.txt"
        f.write_text("1 1:0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected_features must be at least 1"):
            libsvm_load(f, expected_features=0)

    def test_bulk_count_mismatch_falls_back_to_token_parse(self, tmp_path, monkeypatch):
        f = tmp_path / "tiny.txt"
        f.write_text("1 1:0.5 3:2.0\n-1 2:1.0\n", encoding="utf-8")
        real, calls = np.loadtxt, []

        def short_by_one(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)[:-1]

        monkeypatch.setattr(np, "loadtxt", short_by_one)
        assert libsvm_load(f).array.tolist() == [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]]
        assert len(calls) == 1

    def test_bulk_read_error_falls_back_to_token_parse(self, tmp_path, monkeypatch):
        f = tmp_path / "tiny.txt"
        f.write_text("1 1:0.5 3:2.0\n\n-1 2:1.0\n", encoding="utf-8")
        want = libsvm_load(f).array
        checked, real_line = [], datagen._parse_line

        def refuse(*args, **kwargs):
            raise ValueError("could not convert string to float64")

        def checker(line, line_no, *args):
            checked.append(line_no)
            return real_line(line, line_no, *args)

        monkeypatch.setattr(np, "loadtxt", refuse)
        monkeypatch.setattr(datagen, "_parse_line", checker)
        got = libsvm_load(f).array
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert checked == [1, 2, 3]

    def test_label_only_line_is_zero_row(self, tmp_path):
        f = tmp_path / "zrow.txt"
        f.write_text("1 2:5.0\n1\n", encoding="utf-8")
        m = libsvm_load(f)
        assert m.array.tolist() == [[0.0, 5.0], [0.0, 0.0]]

    def test_crlf_and_blank_lines(self, tmp_path):
        f = tmp_path / "crlf.txt"
        f.write_bytes(b"1 1:2.0\r\n\r\n-1 2:3.0\r\n")
        m = libsvm_load(f)
        assert m.array.tolist() == [[2.0, 0.0], [0.0, 3.0]]

    def test_malformed_token(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1 1:1.0\n1 feature\n", encoding="utf-8")
        with pytest.raises(MalformedTokenError) as exc:
            libsvm_load(f)
        assert exc.value.line_no == 2

    def test_malformed_label(self, tmp_path):
        f = tmp_path / "badlabel.txt"
        f.write_text("abc 1:1.0\n", encoding="utf-8")
        with pytest.raises(MalformedTokenError) as exc:
            libsvm_load(f)
        assert exc.value.line_no == 1

    def test_non_increasing_index(self, tmp_path):
        f = tmp_path / "order.txt"
        f.write_text("1 1:1.0\n1 1:1.0 2:2.0\n1 3:1.0 3:2.0\n", encoding="utf-8")
        with pytest.raises(NonIncreasingIndexError) as exc:
            libsvm_load(f)
        assert exc.value.line_no == 3

    def test_index_out_of_range(self, tmp_path):
        f = tmp_path / "range.txt"
        f.write_text("1 1:1.0\n1 5:1.0\n", encoding="utf-8")
        with pytest.raises(FeatureIndexRangeError) as exc:
            libsvm_load(f, expected_features=3)
        assert exc.value.line_no == 2

    def test_zero_based_index_rejected(self, tmp_path):
        f = tmp_path / "zero.txt"
        f.write_text("1 0:1.0\n", encoding="utf-8")
        with pytest.raises(MalformedTokenError):
            libsvm_load(f)

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("\n\n", encoding="utf-8")
        with pytest.raises(LibsvmParseError):
            libsvm_load(f)

    def test_size_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr("sketchguard.datagen.MAX_DENSE_ENTRIES", 5)
        f = tmp_path / "big.txt"
        f.write_text("1 4:1.0\n1 2:1.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            libsvm_load(f)

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        raw = rng.standard_normal((12, 5))
        raw[rng.random((12, 5)) < 0.4] = 0.0
        raw[0, :] = 0.0
        m = DenseMatrix(raw)
        f = tmp_path / "round.txt"
        libsvm_write(f, m)
        loaded = libsvm_load(f, expected_features=5)
        assert loaded == m


class TestNormalizeGramLinf:
    def test_square_root_law(self):
        m = normalize_gram_linf(DenseMatrix([[2.0]]))
        assert m.array.tolist() == [[1.0]]

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        m = DenseMatrix(rng.standard_normal((10, 3)))
        once = normalize_gram_linf(m)
        twice = normalize_gram_linf(once)
        np.testing.assert_allclose(twice.array, once.array, rtol=1e-12)

    def test_recomposed_gram_is_unit(self):
        rng = np.random.default_rng(13)
        m = normalize_gram_linf(DenseMatrix(rng.standard_normal((20, 5))))
        gram = m.array.T @ m.array
        assert abs(np.abs(gram).max() - 1.0) <= 1e-10

    def test_scale_canonical(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((8, 3))
        base = normalize_gram_linf(DenseMatrix(a))
        assert normalize_gram_linf(DenseMatrix(4.0 * a)) == base
        assert normalize_gram_linf(DenseMatrix(0.25 * a)) == base
        negated = normalize_gram_linf(DenseMatrix(-4.0 * a))
        np.testing.assert_array_equal(negated.array, -base.array)
        general = normalize_gram_linf(DenseMatrix(3.0 * a))
        np.testing.assert_allclose(general.array, base.array, rtol=1e-14)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroMatrixError):
            normalize_gram_linf(DenseMatrix(np.zeros((3, 2))))

    def test_ordinary_input_matches_the_direct_formula_bitwise(self):
        # the power-of-two pre-scaling is exact, so it must cancel bit for bit
        rng = np.random.default_rng(15)
        for scale in (1.0, 3.7, 1e-3, 1e100):
            a = scale * rng.standard_normal((200, 7))
            direct = a / math.sqrt(float(np.abs(a.T @ a).max()))
            np.testing.assert_array_equal(normalize_gram_linf(DenseMatrix(a)).array, direct)

    @pytest.mark.parametrize("scale", [1e200, 1e-170], ids=["huge", "tiny"])
    def test_extreme_libsvm_values_normalize(self, tmp_path, scale):
        # the Gram of these entries overflows to inf (huge) or underflows to
        # zero (tiny); neither may turn into zeros or a zero-matrix error
        a = np.random.default_rng(16).standard_normal((64, 8))
        f = tmp_path / "extreme.txt"
        libsvm_write(f, DenseMatrix(scale * a))
        m = normalize_gram_linf(libsvm_load(f))
        assert abs(np.abs(m.array.T @ m.array).max() - 1.0) <= 1e-12
        np.testing.assert_allclose(m.array, normalize_gram_linf(DenseMatrix(a)).array, rtol=1e-12)
