"""Sketching operators and their application to matrix pairs.

A sketching matrix S with t rows compresses an n-row pair (A, B) to the pair
(SA, SB) while keeping the expected Gram structure: E[S^T S] = I. Supported
operators: Gaussian projection, uniform row sampling, length sampling, and the
subsampled randomized Hadamard transform (SRHT).

Both members of a pair are always produced by one realization of S; there is
no API for sketching A and B under independent draws into one SketchPair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .matcore import DenseMatrix, check_finite_result
from .rng import check_seed, substream

__all__ = [
    "SketchKind",
    "SketchSpec",
    "SketchPair",
    "LengthSamplingError",
    "gaussian_sketch",
    "length_sampling_probs",
    "row_sample_sketch",
    "fwht_in_place",
    "srht_sketch",
    "apply_spec",
]

# Gaussian S is materialized in one piece only up to this many entries;
# larger operators are generated and applied in row blocks.
MAX_MATERIALIZED_ENTRIES = 1 << 24

# srht_sketch computes its stage-1 intermediate in blocks of at most this many
# entries (at least one high part's block of n2 rows).
MAX_SRHT_STAGE_ENTRIES = 1 << 17


class LengthSamplingError(ValueError):
    """Length sampling is undefined: every paired row-norm product is zero."""


class SketchKind(str, Enum):
    GAUSSIAN = "gaussian"
    UNIFORM_SAMPLE = "uniform"
    LENGTH_SAMPLE = "length"
    SRHT = "srht"


@dataclass(frozen=True)
class SketchSpec:
    """Which operator to draw, its sketch size t, and the seed of the draw."""

    kind: SketchKind
    t: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "kind", SketchKind(self.kind))
        if self.t < 1:
            raise ValueError(f"sketch size must be at least 1, got {self.t}")
        object.__setattr__(self, "seed", check_seed(self.seed))


@dataclass(frozen=True)
class SketchPair:
    """Sketches (SA, SB) from a single realization of S, with provenance."""

    a_sketch: DenseMatrix
    b_sketch: DenseMatrix
    spec: SketchSpec
    source_rows: int

    def __post_init__(self):
        if self.a_sketch.rows != self.spec.t or self.b_sketch.rows != self.spec.t:
            raise ValueError(
                f"sketch row counts ({self.a_sketch.rows}, {self.b_sketch.rows}) "
                f"do not match sketch size t={self.spec.t}"
            )
        if self.source_rows < 1:
            raise ValueError("source_rows must be at least 1")

    @property
    def t(self) -> int:
        return self.spec.t

    @cached_property
    def sketched_product(self) -> np.ndarray:
        """Read-only cached product of a_sketch's transpose with b_sketch."""
        with np.errstate(over="ignore", invalid="ignore"):
            p = self.a_sketch.array.T @ self.b_sketch.array
        check_finite_result(p, "the sketched product")
        p.flags.writeable = False
        return p


def _check_pair_inputs(a: DenseMatrix, b: DenseMatrix) -> int:
    if a.rows != b.rows:
        raise ValueError(f"row counts differ: {a.rows} vs {b.rows}")
    return a.rows


def gaussian_sketch(a: DenseMatrix, b: DenseMatrix, t: int, seed: int) -> SketchPair:
    """Sketch with S having i.i.d. N(0, 1/t) entries.

    S is read row-major from the one stream (seed, 0) in row blocks of at
    most MAX_MATERIALIZED_ENTRIES entries. The stream's draws do not depend
    on how they are split, so every block size gives the same S as
    materializing it whole. An overflowing product raises
    NonFiniteResultError.
    """
    spec = SketchSpec(SketchKind.GAUSSIAN, t, seed)
    n = _check_pair_inputs(a, b)
    out_a = np.empty((t, a.cols))
    out_b = out_a if b is a else np.empty((t, b.cols))
    scale = 1.0 / math.sqrt(t)
    block = max(1, MAX_MATERIALIZED_ENTRIES // n)
    gen = substream(seed, 0)
    for start in range(0, t, block):
        stop = min(t, start + block)
        s_block = gen.standard_normal((stop - start, n))
        s_block *= scale
        with np.errstate(over="ignore", invalid="ignore"):  # _wrap raises on overflow
            np.matmul(s_block, a.array, out=out_a[start:stop])
            if out_b is not out_a:
                np.matmul(s_block, b.array, out=out_b[start:stop])
    a_sk = DenseMatrix._wrap(out_a)
    b_sk = a_sk if out_b is out_a else DenseMatrix._wrap(out_b)
    return SketchPair(a_sk, b_sk, spec, n)


def length_sampling_probs(a: DenseMatrix, b: DenseMatrix) -> np.ndarray:
    """Row-sampling probabilities proportional to paired row-norm products.

    p_i is the product of the Euclidean norms of row i of a and row i of b,
    normalized to sum to 1. Raises LengthSamplingError when all products are
    zero (a or b is the zero matrix), NonFiniteResultError when they overflow.
    """
    _check_pair_inputs(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        nrm = np.linalg.norm(a.array, axis=1)
        w = nrm * (nrm if b is a else np.linalg.norm(b.array, axis=1))
        total = float(check_finite_result(w.sum(), "the sum of length-sampling weights"))
    if total == 0.0:
        raise LengthSamplingError("all row-norm products are zero; length sampling undefined")
    return w / total


def _check_probs(probs: np.ndarray, n: int) -> np.ndarray:
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.shape[0] != n:
        raise ValueError(f"probability vector must have length {n}")
    if not np.isfinite(p).all() or (p < 0).any():
        raise ValueError("probabilities must be finite and nonnegative")
    if abs(float(p.sum()) - 1.0) > 1e-8:
        raise ValueError(f"probabilities must sum to 1, got {p.sum()!r}")
    return p


def row_sample_sketch(
    a: DenseMatrix, b: DenseMatrix, probs, t: int, seed: int, kind: SketchKind | None = None
) -> SketchPair:
    """Sketch by sampling rows i.i.d. from ``probs``, rescaled by 1/sqrt(t p_i).

    The same row indices are used for both matrices. Indices are drawn by
    inverse CDF over the cumulative probabilities, pinned to 1 from the last
    p_i > 0 on; rows with p_i = 0 occupy empty intervals and are never drawn.
    """
    if kind is None:
        kind = SketchKind.UNIFORM_SAMPLE
    spec = SketchSpec(kind, t, seed)
    n = _check_pair_inputs(a, b)
    p = _check_probs(probs, n)
    cum = np.cumsum(p)
    cum[np.flatnonzero(p)[-1] :] = 1.0  # so u < 1 never overruns the last drawable row
    u = substream(seed, 0).random(t)
    idx = np.searchsorted(cum, u, side="right")
    scale = 1.0 / np.sqrt(t * p[idx])
    with np.errstate(over="ignore"):  # an overflowing row raises NonFiniteResultError in _wrap
        a_sk = DenseMatrix._wrap(a.array[idx] * scale[:, None])
        b_sk = a_sk if b is a else DenseMatrix._wrap(b.array[idx] * scale[:, None])
    return SketchPair(a_sk, b_sk, spec, n)


def fwht_in_place(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along axis 0, in place.

    Length (axis 0) must be a power of two. 2-D input is transformed
    column-wise. Runs the usual butterfly passes, log2(n) of them, each a
    full pass over the data. Returns the transformed array.
    """
    a = np.asarray(values)
    n = a.shape[0]
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"length must be a power of two, got {n}")
    half = 1
    while half < n:
        view = a.reshape(n // (2 * half), 2, half, *a.shape[1:])
        upper = view[:, 0].copy()
        view[:, 0] += view[:, 1]
        view[:, 1] = upper - view[:, 1]
        half *= 2
    return values


def _hadamard_rows(n: int, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of the n x n Walsh-Hadamard matrix.

    The matrix is symmetric, so its rows are the transforms of one-hot columns.
    """
    onehot = np.zeros((n, rows.size))
    onehot[rows, np.arange(rows.size)] = 1.0
    return fwht_in_place(onehot).T


def srht_sketch(a: DenseMatrix, b: DenseMatrix, t: int, seed: int) -> SketchPair:
    """Subsampled randomized Hadamard transform sketch of the pair.

    The operator is sqrt(n_pad / t) P H D / sqrt(n_pad) on the rows zero-padded
    to the next power of two n_pad: D is a Rademacher diagonal drawn from
    stream (seed, 0), H the Walsh-Hadamard matrix, and P keeps t rows sampled
    uniformly with replacement from stream (seed, 1).

    Only the t kept rows of H D [A B] are computed. Row j = j1 n2 + j2 splits
    into high and low bits, n_pad = n1 n2 with n2 = 2^floor(log2(n_pad) / 2),
    so H = H_{n1} kron H_{n2}. Stage 1 multiplies the H_{n1} rows of the
    distinct high parts into the signed data, viewed as ceil(n / n2) blocks of
    n2 rows; stage 2 multiplies each kept row's H_{n2} row into its high
    part's block. Both are GEMMs, of O(k (min(t, n1) n + t n2)) flops for k
    columns in all, and no padded n_pad-row array is formed. Stage 1 holds at
    most MAX_SRHT_STAGE_ENTRIES entries, or one high part's n2 k, at a time.
    """
    spec = SketchSpec(SketchKind.SRHT, t, seed)
    n = _check_pair_inputs(a, b)
    n_pad = 1 << (n - 1).bit_length()
    signs = substream(seed, 0).integers(0, 2, n_pad) * 2 - 1
    idx = substream(seed, 1).integers(0, n_pad, t)
    n2 = 1 << ((n_pad.bit_length() - 1) // 2)
    blocks = -(-n // n2)
    highs, group = np.unique(idx // n2, return_inverse=True)
    lows, low_row = np.unique(idx % n2, return_inverse=True)
    h1 = _hadamard_rows(n_pad // n2, highs)[:, :blocks]
    h2 = _hadamard_rows(n2, lows)
    order = np.argsort(group, kind="stable")
    starts = np.searchsorted(group[order], np.arange(highs.size + 1))
    scale = (signs[:n] * (1.0 / math.sqrt(t)))[:, None]

    def kept(x: np.ndarray) -> np.ndarray:
        k = x.shape[1]
        signed = np.zeros((blocks * n2, k))
        np.multiply(x, scale, out=signed[:n])
        signed = signed.reshape(blocks, n2 * k)
        out = np.empty((t, k))
        step = max(1, MAX_SRHT_STAGE_ENTRIES // (n2 * k))
        for lo in range(0, highs.size, step):
            stage = h1[lo : lo + step] @ signed
            for g in range(lo, min(lo + step, highs.size)):
                rows = order[starts[g] : starts[g + 1]]
                out[rows] = h2[low_row[rows]] @ stage[g - lo].reshape(n2, k)
        return out

    # A and B go through separate GEMMs of the same shapes, so equal inputs
    # give bitwise-equal sketches. _wrap raises on an overflowing product.
    with np.errstate(over="ignore", invalid="ignore"):
        a_sk = DenseMatrix._wrap(kept(a.array))
        b_sk = a_sk if b is a else DenseMatrix._wrap(kept(b.array))
    return SketchPair(a_sk, b_sk, spec, n)


def apply_spec(a: DenseMatrix, b: DenseMatrix, spec: SketchSpec) -> SketchPair:
    """Dispatch on spec.kind; length sampling computes its probabilities here."""
    if spec.kind is SketchKind.GAUSSIAN:
        return gaussian_sketch(a, b, spec.t, spec.seed)
    if spec.kind is SketchKind.UNIFORM_SAMPLE:
        n = _check_pair_inputs(a, b)
        probs = np.full(n, 1.0 / n)
        return row_sample_sketch(a, b, probs, spec.t, spec.seed, kind=spec.kind)
    if spec.kind is SketchKind.LENGTH_SAMPLE:
        probs = length_sampling_probs(a, b)
        return row_sample_sketch(a, b, probs, spec.t, spec.seed, kind=spec.kind)
    if spec.kind is SketchKind.SRHT:
        return srht_sketch(a, b, spec.t, spec.seed)
    raise ValueError(f"unsupported sketch kind: {spec.kind!r}")
