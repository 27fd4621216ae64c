"""Dense-matrix foundation: storage, the exact product, and its error types.

All scalars are float64. Matrices are immutable after construction and safe to
share across threads. The bootstrap, SRHT and synth kernels keep each blocked
temporary within MAX_BLOCK_ENTRIES entries.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DenseMatrix",
    "ZeroMatrixError",
    "NonFiniteResultError",
    "matmul_t",
]

# Entry cap on the bootstrap's, the SRHT's and synth's blocks: peak memory does not grow with
# B or n, and a freed 1 MB block stays on glibc's heap, so later blocks reuse its warm pages.
MAX_BLOCK_ENTRIES = 1 << 17


class ZeroMatrixError(ValueError):
    """An operation undefined for the all-zero matrix received one."""


class NonFiniteResultError(ValueError):
    """A result computed from finite, nonzero inputs is out of float64's range.

    A product overflowed to inf or NaN, or the length-sampling weights of rows
    that are nonzero in both matrices underflowed to a zero sum.
    """


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

    # _norms and _r are unset until _row_norms and _gram_r first run, and cannot go stale: no path
    # writes an array once a DenseMatrix holds it. Racers store equal bits.
    __slots__ = ("_a", "_norms", "_r")

    def __init__(self, values):
        a = np.array(values, dtype=np.float64, order="C")
        self._a = _validated(a)

    @classmethod
    def _wrap(cls, a: np.ndarray, what: str = "a computed matrix") -> "DenseMatrix":
        # Internal fast path: adopt an owned, computed array without copying; its overflow names what.
        m = object.__new__(cls)
        m._a = _validated(np.ascontiguousarray(a, dtype=np.float64), what)
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
    def _row_norms(self) -> np.ndarray:
        """Read-only Euclidean norms of the rows, from one einsum pass on first use."""
        if getattr(self, "_norms", None) is None:
            with np.errstate(over="ignore", invalid="ignore"):
                norms = np.sqrt(np.einsum("ij,ij->i", self._a, self._a))
            norms.flags.writeable = False
            self._norms = norms
        return self._norms

    @property
    def _gram_r(self) -> "DenseMatrix":
        """R of the reduced QR ``A = Q R``, from one ``np.linalg.qr`` on first use."""
        if getattr(self, "_r", None) is None:
            self._r = DenseMatrix._wrap(np.linalg.qr(self._a, mode="r"))
        return self._r

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self._a.shape == other._a.shape and bool(np.array_equal(self._a, other._a))

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}x{self.cols})"


def _validated(a: np.ndarray, what: str | None = None) -> np.ndarray:
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix must have at least one row and one column, got shape {a.shape}")
    if what is not None:  # a computed matrix: out of range, not bad input
        check_finite_result(a, what)
    elif not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    a.flags.writeable = False
    return a


def check_same_rows(a: DenseMatrix, b: DenseMatrix) -> int:
    """Return the row count a and b share, else raise ValueError."""
    if a.rows != b.rows:
        raise ValueError(f"row counts differ: {a.rows} vs {b.rows}")
    return a.rows


def matmul_t(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Return the d x d' product of a's transpose with b; rows must match."""
    check_same_rows(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        return DenseMatrix._wrap(a.array.T @ b.array, "the exact product A^T B")
