"""Test-matrix generation and LIBSVM-format ingestion.

Synthetic matrices are assembled from an explicit singular value profile with
heavy-tailed, high-coherence row bases, then scaled so the max-abs entry of
the Gram matrix is 1. Natural data loads from LIBSVM text files into dense
form with the same normalization applied separately.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .matcore import DenseMatrix, RankDeficiencyError, ZeroMatrixError, reduced_qr
from .rng import check_seed, derive_seed, substream

__all__ = [
    "RankMode",
    "SynthProfile",
    "LibsvmParseError",
    "MalformedTokenError",
    "NonIncreasingIndexError",
    "FeatureIndexRangeError",
    "mvt_rows",
    "singular_value_profile",
    "synth_matrix",
    "libsvm_load",
    "normalize_gram_linf",
]

# Densified LIBSVM matrices are capped at this many entries.
MAX_DENSE_ENTRIES = 1 << 28


class RankMode(str, Enum):
    LOW = "low"
    HIGH = "high"


@dataclass(frozen=True)
class SynthProfile:
    """Shape, stable-rank regime, and seed for a synthetic matrix."""

    n: int
    d: int
    rank_mode: RankMode
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "rank_mode", RankMode(self.rank_mode))
        if not self.n >= self.d >= 2:
            raise ValueError(f"need n >= d >= 2, got n={self.n}, d={self.d}")
        object.__setattr__(self, "seed", check_seed(self.seed))


class LibsvmParseError(ValueError):
    """Base class for LIBSVM parse failures; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MalformedTokenError(LibsvmParseError):
    """A token is not a valid label or index:value entry."""


class NonIncreasingIndexError(LibsvmParseError):
    """Feature indices within a line must be strictly increasing."""


class FeatureIndexRangeError(LibsvmParseError):
    """A feature index exceeds the expected feature count."""


def mvt_rows(n: int, d: int, nu: float = 2.0, seed: int = 0) -> DenseMatrix:
    """Rows sampled i.i.d. from a zero-mean multivariate t distribution.

    The scale matrix has entries 2 * 0.5^|i-j| (banded, so rows are strongly
    correlated and the sample has high row coherence). Each row is L z divided
    by sqrt(w / nu) with L the Cholesky factor, z standard normal, and w
    chi-square with nu degrees of freedom.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be at least 1")
    if nu <= 0:
        raise ValueError("nu must be positive")
    idx = np.arange(d)
    scale = 2.0 * 0.5 ** np.abs(idx[:, None] - idx[None, :])
    chol = np.linalg.cholesky(scale)
    g = substream(seed)
    z = g.standard_normal((n, d))
    w = g.chisquare(nu, n)
    rows = (z @ chol.T) / np.sqrt(w / nu)[:, None]
    return DenseMatrix._wrap(rows)


def singular_value_profile(mode: RankMode, d: int) -> np.ndarray:
    """Singular values for the given regime, largest first.

    Low stable rank: 10^k for k equally spaced from 0 down to -6. High stable
    rank: equally spaced between 1 and 0.1.
    """
    mode = RankMode(mode)
    if d < 2:
        raise ValueError("d must be at least 2")
    if mode is RankMode.LOW:
        return 10.0 ** np.linspace(0.0, -6.0, d)
    return np.linspace(1.0, 0.1, d)


def synth_matrix(profile: SynthProfile) -> DenseMatrix:
    """Synthetic n x d matrix with the profile's singular values.

    Built as U diag(sigma) V^T where U is the Q factor of the reduced QR of a
    heavy-tailed random matrix, V the Q factor of a square standard normal
    matrix, and sigma from singular_value_profile; the result is scaled so
    the max-abs entry of its Gram matrix is 1. Rank-deficient draws (near
    zero probability) are retried up to 3 times.
    """
    sigma = singular_value_profile(profile.rank_mode, profile.d)
    last: RankDeficiencyError | None = None
    for attempt in range(3):
        try:
            x = mvt_rows(profile.n, profile.d, 2.0, derive_seed(profile.seed, 0, attempt))
            u, _ = reduced_qr(x)
            g = substream(derive_seed(profile.seed, 1, attempt)).standard_normal(
                (profile.d, profile.d)
            )
            v, _ = reduced_qr(DenseMatrix._wrap(g))
            a = (u.array * sigma[None, :]) @ v.array.T
            return normalize_gram_linf(DenseMatrix._wrap(a))
        except RankDeficiencyError as exc:
            last = exc
    raise last


def normalize_gram_linf(a: DenseMatrix) -> DenseMatrix:
    """Scale so the Gram matrix has max-abs entry 1 (divide by its square root).

    The entries are first scaled by the power of two that brings the max-abs
    entry into [0.5, 1), so the Gram can neither overflow nor underflow. That
    scaling is exact and cancels in the division, so it changes no bit of the
    result for inputs whose Gram was representable before.
    """
    top = max(float(a.array.max()), -float(a.array.min()))
    if top == 0.0:
        raise ZeroMatrixError("cannot normalize the zero matrix")
    scaled = np.ldexp(a.array, -math.frexp(top)[1])
    scaled /= math.sqrt(float(np.abs(scaled.T @ scaled).max()))
    return DenseMatrix._wrap(scaled)


def libsvm_load(path, expected_features: int | None = None) -> DenseMatrix:
    """Parse a LIBSVM text file into a dense feature matrix; labels are discarded.

    Lines look like ``<label> <idx>:<val> <idx>:<val> ...`` with 1-based,
    strictly increasing indices; unlisted features are zero. Whitespace
    separates tokens; blank lines are skipped; LF and CRLF both work. The
    feature count is ``expected_features`` when given, otherwise the largest
    index seen. Parse failures raise MalformedTokenError,
    NonIncreasingIndexError, or FeatureIndexRangeError with the line number.
    """
    if expected_features is not None and expected_features < 1:
        raise ValueError("expected_features must be at least 1")
    # Every entry's row, 1-based feature index and value as machine numbers,
    # densified in one scatter.
    rows, indices, values = array("q"), array("q"), array("d")
    n_rows = 0
    max_index = 0
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            tokens = line.split()
            try:
                float(tokens[0])
            except ValueError:
                raise MalformedTokenError(f"label {tokens[0]!r} is not a number", line_no) from None
            prev = 0
            for tok in tokens[1:]:
                idx_str, sep, val_str = tok.partition(":")
                if not sep:
                    raise MalformedTokenError(f"token {tok!r} lacks an index:value colon", line_no)
                try:
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise MalformedTokenError(
                        f"token {tok!r} is not a valid index:value pair", line_no
                    ) from None
                if idx < 1:
                    raise MalformedTokenError(f"feature index {idx} is not 1-based", line_no)
                if not math.isfinite(val):
                    raise MalformedTokenError(f"value {val_str!r} is not finite", line_no)
                if idx <= prev:
                    raise NonIncreasingIndexError(
                        f"feature index {idx} does not increase past {prev}", line_no
                    )
                if expected_features is not None and idx > expected_features:
                    raise FeatureIndexRangeError(
                        f"feature index {idx} exceeds expected {expected_features}", line_no
                    )
                prev = idx
                indices.append(idx)
                values.append(val)
            rows.extend([n_rows] * (len(indices) - len(rows)))
            n_rows += 1
            max_index = max(max_index, prev)
    if not n_rows:
        raise LibsvmParseError("no data lines in file", 0)
    cols = expected_features if expected_features is not None else max_index
    if cols < 1:
        raise LibsvmParseError("no feature indices seen; pass expected_features", 0)
    if n_rows * cols > MAX_DENSE_ENTRIES:
        raise ValueError(
            f"dense matrix of {n_rows}x{cols} exceeds the {MAX_DENSE_ENTRIES} entry cap"
        )
    out = np.zeros((n_rows, cols))
    out[np.asarray(rows), np.asarray(indices) - 1] = values
    return DenseMatrix._wrap(out)
