"""Shared independent oracles used across the test modules."""

import math

import numpy as np

from sketchguard.matcore import DenseMatrix, ZeroMatrixError, matmul_t
from sketchguard.rng import substream
from sketchguard.sketch import SketchPair


def linf_norm(c: DenseMatrix) -> float:
    """Largest absolute entry."""
    return float(np.abs(c.array).max())


def frobenius_norm(c: DenseMatrix) -> float:
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(c.array))


def spectral_norm(c: DenseMatrix) -> float:
    """Largest singular value, from LAPACK's SVD to working precision."""
    return float(np.linalg.norm(c.array, 2))


def stable_rank(c: DenseMatrix) -> float:
    """Squared Frobenius norm over squared spectral norm; at least 1 for nonzero input."""
    f = frobenius_norm(c)
    if f == 0.0:
        raise ZeroMatrixError("stable rank is undefined for the zero matrix")
    return (f / spectral_norm(c)) ** 2


def true_error(a: DenseMatrix, b: DenseMatrix, pair: SketchPair) -> float:
    """Actual error of the sketched product: max-abs deviation from the exact one."""
    if pair.source_rows != a.rows or pair.source_rows != b.rows:
        raise ValueError(
            f"pair was sketched from {pair.source_rows} rows, inputs have {a.rows}/{b.rows}"
        )
    if pair.a_sketch.cols != a.cols or pair.b_sketch.cols != b.cols:
        raise ValueError("pair column counts do not match the input matrices")
    return linf_norm(DenseMatrix._wrap(pair.sketched_product - matmul_t(a, b).array))


def mc_mean_check(sketcher, a: DenseMatrix, b: DenseMatrix, draws: int, tol_se: float = 5.0):
    """Assert the Monte-Carlo mean of the sketched product matches the exact one.

    Entrywise: |mean - truth| <= tol_se * (sample SD / sqrt(draws)), with a
    tiny absolute floor for entries whose sketched values never vary.
    """
    truth = matmul_t(a, b).array
    total = np.zeros_like(truth)
    total_sq = np.zeros_like(truth)
    for i in range(draws):
        p = sketcher(i)
        total += p
        total_sq += p * p
    mean = total / draws
    var = np.maximum(total_sq / draws - mean**2, 0.0)
    se = np.sqrt(var / draws)
    assert (np.abs(mean - truth) <= tol_se * se + 1e-12).all()


def hadamard(n: int) -> np.ndarray:
    """Explicit Walsh-Hadamard matrix by the doubling recursion."""
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def explicit_srht_apply(x: np.ndarray, t: int, seed: int) -> np.ndarray:
    """Materialize the SRHT operator from the same streams and apply it densely."""
    n = x.shape[0]
    n_pad = 1 << (n - 1).bit_length()
    signs = substream(seed, 0).integers(0, 2, n_pad) * 2 - 1
    idx = substream(seed, 1).integers(0, n_pad, t)
    p = np.zeros((t, n_pad))
    p[np.arange(t), idx] = 1.0 / math.sqrt(t / n_pad)
    s = p @ (hadamard(n_pad) / math.sqrt(n_pad)) @ np.diag(signs.astype(float))
    x_pad = np.zeros((n_pad, x.shape[1]))
    x_pad[:n] = x
    return s @ x_pad


def resample_error(pair: SketchPair, idx: np.ndarray) -> float:
    """Definitional non-parametric evaluation: resample rows jointly, compare products."""
    a = pair.a_sketch.array
    b = pair.b_sketch.array
    return float(np.abs(a[idx].T @ b[idx] - pair.sketched_product).max())


def dyad_form_error(pair: SketchPair, xi: np.ndarray) -> float:
    """Definitional multiplier evaluation: weighted centered dyads, averaged, max-abs."""
    a = pair.a_sketch.array
    b = pair.b_sketch.array
    t = a.shape[0]
    product = np.zeros((a.shape[1], b.shape[1]))
    for j in range(a.shape[1]):
        for k in range(b.shape[1]):
            product[j, k] = sum(a[i, j] * b[i, k] for i in range(t))
    accum = np.zeros_like(product)
    for i in range(t):
        dyad = t * np.outer(a[i], b[i])
        accum += xi[i] * (dyad - product)
    return float(np.abs(accum / t).max())


def broadcast_multiplier_error(pair: SketchPair, weights: np.ndarray) -> np.ndarray:
    """The bootstrap kernel with its weighted sketch built by a 3-operand broadcast multiply.

    Row b scales the rows of B~ by (xibar - xi) as ``c[:, :, None] * b``, then
    takes the same triangle split and products as ``multiplier_error``.
    """
    w = np.asarray(weights, dtype=np.float64)
    a, b = pair.a_sketch.array, pair.b_sketch.array
    scaled = (w.mean(axis=1, keepdims=True) - w)[:, :, None] * b
    d = a.shape[1]
    groups = max(1, min(4, d // 16)) if pair.b_sketch is pair.a_sketch else 1
    out = None
    for k in range(groups):
        lo = k * d // groups
        m = np.matmul(a[:, lo : (k + 1) * d // groups].T, scaled[:, :, lo:])
        top = np.abs(m, out=m).max(axis=(1, 2))
        out = top if out is None else np.maximum(out, top, out=out)
    return out
