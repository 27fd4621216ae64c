"""Test-matrix generation and LIBSVM-format ingestion.

Synthetic matrices are assembled from an explicit singular value profile with
heavy-tailed, high-coherence row bases, then scaled so the max-abs entry of
the Gram matrix is 1. Natural data loads from LIBSVM text files into dense
form with the same normalization applied separately.
"""

from __future__ import annotations

import math
import re
from array import array
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .matcore import MAX_BLOCK_ENTRIES, DenseMatrix, ZeroMatrixError
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

# LIBSVM text is parsed this many characters at a time, plus the rest of a line.
_CHUNK_CHARS = 1 << 16
# Space- or tab-separated ``label idx:value ...`` lines in decimals that float()
# and numpy read alike. No digit matches two ways, so a bad line fails in linear
# time; Python 3.10 drops the possessive quantifiers, which halve a match's time.
_NUM = r"[+-]?+(?:[0-9]++(?:\.[0-9]*+)?+|\.[0-9]++)(?:[eE][+-]?+[0-9]++)?+"
_LINES = rf"(?:[ \t]*+(?:{_NUM}(?:[ \t]++[0-9]++:{_NUM})*+[ \t]*+)?+\n)*+"
_PLAIN = re.compile(_LINES if sys.version_info >= (3, 11) else re.sub(r"([+*?])\+", r"\1", _LINES))


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
    if n < 1 or d < 1 or not 0 < nu < math.inf:
        raise ValueError(f"need n, d >= 1 and a positive, finite nu; got n={n}, d={d}, nu={nu}")
    return DenseMatrix._wrap(_mvt_array(n, d, nu, seed))


def _mvt_array(n: int, d: int, nu: float, seed: int) -> np.ndarray:
    """mvt_rows' entries, in a fresh array that no DenseMatrix holds."""
    idx = np.arange(d)
    chol = np.linalg.cholesky(2.0 * 0.5 ** np.abs(idx[:, None] - idx[None, :]))
    g, rows = substream(seed), np.empty((n, d))
    _times_in_place(g.standard_normal(out=rows), chol.T)
    rows /= np.sqrt(g.chisquare(nu, n) / nu)[:, None]
    return rows


def _times_in_place(x: np.ndarray, m: np.ndarray) -> None:
    """x <- x m in near-equal row blocks within MAX_BLOCK_ENTRIES, so rows round as in one GEMM."""
    for blk in np.array_split(x, -(-len(x) // max(1, MAX_BLOCK_ENTRIES // x.shape[1]))):
        blk[...] = blk @ m


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


def _signed_q(x: np.ndarray) -> np.ndarray:
    """Q factor of the reduced QR of x, signed so that R has a nonnegative diagonal."""
    q, r = np.linalg.qr(x)
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def _positive_qr_times(x: np.ndarray, tail: np.ndarray) -> None:
    """Overwrite x = QR, R's diagonal positive, with Q tail: shifted CholeskyQR3 on d x d Grams."""
    n, d = x.shape
    for p, right in enumerate([np.eye(d)] * 2 + [tail]):
        gram = x.T @ x
        if p == 0:  # Fukaya et al.'s shift: positive definite while cond(x) < 1/eps
            gram.flat[:: d + 1] += 11 * (n * d + d * (d + 1)) * np.finfo(float).eps * np.trace(gram)
        _times_in_place(x, np.linalg.solve(np.linalg.cholesky(gram).T, right))


def synth_matrix(profile: SynthProfile) -> DenseMatrix:
    """Synthetic n x d matrix with the profile's singular values.

    Built as U diag(sigma) V^T where U is the Q factor of the reduced QR of a
    heavy-tailed random matrix, V the Q factor of a square standard normal
    matrix, and sigma from singular_value_profile; the result is scaled so
    the max-abs entry of its Gram matrix is 1. Both random matrices have full
    column rank with probability one.
    """
    sigma = singular_value_profile(profile.rank_mode, profile.d)
    x = _mvt_array(profile.n, profile.d, 2.0, derive_seed(profile.seed, 0, 0))  # U, then the result
    g = substream(derive_seed(profile.seed, 1, 0)).standard_normal((profile.d, profile.d))
    _positive_qr_times(x, sigma[:, None] * _signed_q(g).T)
    return DenseMatrix._wrap(_normalized(x, out=x))


def normalize_gram_linf(a: DenseMatrix) -> DenseMatrix:
    """Scale so the Gram matrix has max-abs entry 1 (divide by its square root).

    The entries are first scaled by the power of two that brings the max-abs
    entry into [0.5, 1), so the Gram can neither overflow nor underflow. That
    scaling is exact and cancels in the division, so it changes no bit of the
    result for inputs whose Gram was representable before.
    """
    return DenseMatrix._wrap(_normalized(a.array))


def _normalized(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """normalize_gram_linf's entries of a, written to out when given."""
    top = max(float(a.max()), -float(a.min()))
    if top == 0.0:
        raise ZeroMatrixError("cannot normalize the zero matrix")
    scaled = np.ldexp(a, -math.frexp(top)[1], out=out)
    scaled /= math.sqrt(float(np.abs(scaled.T @ scaled).max()))
    return scaled


def _parse_line(line: str, line_no: int, expected_features: int | None, indices, values):
    """Check one line token by token and append its entries; return 1 for a row, 0 if blank."""
    tokens = line.split()
    if not tokens:
        return 0
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
            idx, val = int(idx_str), float(val_str)
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
    return 1


def _parse_plain(chunk: str, lines: list[str], expected_features: int | None):
    """Bulk-parse a plain chunk into (row count, rows, indices, values); None if a check fails."""
    if _PLAIN.match(chunk).end() != len(chunk):
        return None
    colons = np.array([line.count(":") for line in lines if line.strip()], dtype=np.int64)
    widths = 1 + 2 * colons
    flat = chunk.replace(":", " ").replace("\n", " ")  # one row: loadtxt takes no ragged rows
    try:  # loadtxt would warn on whitespace alone
        nums = np.loadtxt([flat], comments=None, ndmin=1) if colons.size else np.zeros(0)
    except ValueError:
        return None
    if nums.size != widths.sum():
        return None
    idx, val = np.delete(nums, np.cumsum(widths) - widths).reshape(-1, 2).T  # drop labels
    row = np.repeat(np.arange(colons.size), colons)
    ok = (idx >= 1) & (idx < 2.0**53) & np.isfinite(val)  # from 2^53 on, floats round indices
    ok[1:] &= (idx[1:] > idx[:-1]) | (row[1:] != row[:-1])
    ok &= idx <= (expected_features or np.inf)
    return (colons.size, row, idx.astype(np.int64), val) if ok.all() else None


def libsvm_load(path, expected_features: int | None = None) -> DenseMatrix:
    """Parse a LIBSVM text file into a dense feature matrix; labels are discarded.

    Lines look like ``<label> <idx>:<val> <idx>:<val> ...`` with 1-based,
    strictly increasing indices; unlisted features are zero. Whitespace
    separates tokens; blank lines are skipped; LF and CRLF both work. The
    feature count is ``expected_features`` when given, otherwise the largest
    index seen. Parse failures raise MalformedTokenError,
    NonIncreasingIndexError, or FeatureIndexRangeError with the line number.

    Plain decimal chunks are parsed and checked in bulk C passes, the numbers
    read by np.loadtxt as one row; any other chunk, or one a bulk check or
    loadtxt rejects, goes token by token to the same result.
    """
    if expected_features is not None and expected_features < 1:
        raise ValueError("expected_features must be at least 1")
    pieces = []  # each chunk's rows, 1-based feature indices and values
    n_rows = max_index = line_no = 0
    with open(path, encoding="utf-8") as fh:
        while chunk := fh.read(_CHUNK_CHARS) + fh.readline():
            chunk += "" if chunk.endswith("\n") else "\n"
            lines = chunk.split("\n")[:-1]
            plain = _parse_plain(chunk, lines, expected_features)
            if plain is not None:
                rows, row, idx, val = plain
                row, n_rows, top = row + n_rows, n_rows + rows, int(idx.max(initial=0))
            else:  # token by token; indices stay Python ints, which may pass int64
                row, idx, val = array("q"), [], array("d")
                for no, line in enumerate(lines, line_no + 1):
                    n_rows += _parse_line(line, no, expected_features, idx, val)
                    row.extend([n_rows - 1] * (len(idx) - len(row)))
                top = max(idx, default=0)
            if top <= MAX_DENSE_ENTRIES:  # past it, the cap error below is certain
                pieces.append((np.asarray(row, np.int64), np.asarray(idx, np.int64), np.asarray(val)))
            max_index = max(max_index, top)
            line_no += len(lines)
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
    for row, idx, val in pieces:
        out[row, idx - 1] = val
    return DenseMatrix._wrap(out)
