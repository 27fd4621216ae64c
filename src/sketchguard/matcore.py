"""Dense-matrix foundation: storage, products, norms, and the reduced QR factorization.

All scalars are float64. Matrices are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DenseMatrix",
    "RankDeficiencyError",
    "ZeroMatrixError",
    "NonFiniteResultError",
    "matmul_t",
    "linf_norm",
    "frobenius_norm",
    "spectral_norm",
    "stable_rank",
    "reduced_qr",
]


class RankDeficiencyError(ValueError):
    """A factorization input was numerically rank deficient."""


class ZeroMatrixError(ValueError):
    """An operation undefined for the all-zero matrix received one."""


class NonFiniteResultError(ValueError):
    """A result computed from finite inputs is not finite: a product overflowed."""


def check_finite_result(values: np.ndarray, what: str) -> np.ndarray:
    """Return ``values`` if every entry is finite, else raise NonFiniteResultError."""
    if not np.isfinite(values).all():
        raise NonFiniteResultError(
            f"{what} is not finite: the inputs are too large for it in float64"
        )
    return values


class DenseMatrix:
    """Immutable row-major float64 matrix with at least one row and column.

    Constructors reject NaN and Inf entries; downstream quantile logic is
    undefined over non-finite values.
    """

    __slots__ = ("_a",)

    def __init__(self, values):
        a = np.array(values, dtype=np.float64, order="C")
        self._a = _validated(a)

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "DenseMatrix":
        # Internal fast path: adopt an owned, computed array without copying.
        m = object.__new__(cls)
        m._a = _validated(np.ascontiguousarray(a, dtype=np.float64), computed=True)
        return m

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def array(self) -> np.ndarray:
        """Read-only 2-D view of the entries."""
        return self._a

    @property
    def data(self) -> np.ndarray:
        """Read-only flat row-major view of the entries."""
        return self._a.reshape(-1)

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self._a.shape == other._a.shape and bool(np.array_equal(self._a, other._a))

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}x{self.cols})"


def _validated(a: np.ndarray, computed: bool = False) -> np.ndarray:
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix must have at least one row and one column, got shape {a.shape}")
    if computed:
        check_finite_result(a, "a computed matrix")
    elif not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    a.flags.writeable = False
    return a


def matmul_t(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Return the d x d' product of a's transpose with b; rows must match."""
    if a.rows != b.rows:
        raise ValueError(f"row counts differ: {a.rows} vs {b.rows}")
    with np.errstate(over="ignore", invalid="ignore"):
        product = a.array.T @ b.array
    return DenseMatrix._wrap(check_finite_result(product, "the exact product A^T B"))


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


def reduced_qr(x: DenseMatrix, rank_tol: float = 1e-10) -> tuple[DenseMatrix, DenseMatrix]:
    """Reduced QR factorization with the R diagonal forced nonnegative.

    Householder-based (LAPACK), so Q is deterministic once the diagonal sign
    convention is applied. Requires rows >= cols and numerically full column
    rank; a diagonal entry of R at or below ``rank_tol`` times the largest
    one raises RankDeficiencyError.
    """
    if x.rows < x.cols:
        raise ValueError(f"need rows >= cols, got {x.rows}x{x.cols}")
    q, r = np.linalg.qr(x.array, mode="reduced")
    diag = np.abs(np.diag(r))
    threshold = rank_tol * diag.max()
    if (diag <= threshold).any():
        raise RankDeficiencyError(
            f"input is numerically rank deficient (min |R_ii| = {diag.min():.3e})"
        )
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return DenseMatrix._wrap(q * signs), DenseMatrix._wrap(signs[:, None] * r)
