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

from .matcore import (
    MAX_BLOCK_ENTRIES, DenseMatrix, NonFiniteResultError, check_finite_result, check_same_rows,
)
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
# Not MAX_BLOCK_ENTRIES: S in blocks that small ran 1.5-1.8x slower at 30000x100, t = 512.
MAX_MATERIALIZED_ENTRIES = 1 << 24


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
        return DenseMatrix._wrap(p, "the sketched product").array


def gaussian_sketch(a: DenseMatrix, b: DenseMatrix, t: int, seed: int) -> SketchPair:
    """Sketch with S having i.i.d. N(0, 1/t) entries.

    S is read row-major from the one stream (seed, 0) in row blocks of at
    most MAX_MATERIALIZED_ENTRIES entries. The stream's draws do not depend
    on how they are split, so every block size gives the same S as
    materializing it whole. An overflowing product raises
    NonFiniteResultError.
    """
    spec = SketchSpec(SketchKind.GAUSSIAN, t, seed)
    n = check_same_rows(a, b)
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
    a_sk = DenseMatrix._wrap(out_a, "the sketch")
    b_sk = a_sk if out_b is out_a else DenseMatrix._wrap(out_b, "the sketch")
    return SketchPair(a_sk, b_sk, spec, n)


def length_sampling_probs(a: DenseMatrix, b: DenseMatrix) -> np.ndarray:
    """Row-sampling probabilities proportional to paired row-norm products.

    p_i is the product of the Euclidean norms of row i of a and row i of b,
    normalized to sum to 1. Each matrix caches its row norms: one einsum pass
    on its first call, none after. A shared matrix (b is a) squares its one
    vector, so it gives the same bits as a copy of itself.
    Raises LengthSamplingError when all products are zero (no row is nonzero
    in both a and b), NonFiniteResultError when they overflow, or underflow to
    a zero sum although such a row exists.
    """
    check_same_rows(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        w = a._row_norms * b._row_norms
        total = float(check_finite_result(w.sum(), "the sum of length-sampling weights"))
    if total == 0.0:
        if (a.array.any(axis=1) & b.array.any(axis=1)).any():
            raise NonFiniteResultError(
                "the row-norm products underflowed to zero: the inputs are too small for "
                "length sampling in float64"
            )
        raise LengthSamplingError("all row-norm products are zero; length sampling undefined")
    return w / total


def row_sample_sketch(
    a: DenseMatrix, b: DenseMatrix, probs, t: int, seed: int,
    kind: SketchKind = SketchKind.UNIFORM_SAMPLE,
) -> SketchPair:
    """Sketch by sampling rows i.i.d. from ``probs``, rescaled by 1/sqrt(t p_i).

    Both matrices use the row indices ``Generator.choice`` draws on stream
    (seed, 0). It raises ValueError unless ``probs`` is a nonnegative length-n
    vector summing to 1 within sqrt(eps); its inverse CDF is exactly 1 from the
    last p_i > 0 on, so rows with p_i = 0 are never drawn.
    """
    spec = SketchSpec(kind, t, seed)
    n = check_same_rows(a, b)
    p = np.asarray(probs, dtype=np.float64)
    idx = substream(seed, 0).choice(n, t, p=p)
    scale = 1.0 / np.sqrt(t * p[idx])
    with np.errstate(over="ignore"):  # an overflowing row raises NonFiniteResultError in _wrap
        a_sk = DenseMatrix._wrap(a.array[idx] * scale[:, None], "the sketch")
        b_sk = a_sk if b is a else DenseMatrix._wrap(b.array[idx] * scale[:, None], "the sketch")
    return SketchPair(a_sk, b_sk, spec, n)


def fwht_in_place(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along axis 0 of a numpy array, in place.

    Length (axis 0) must be a power of two. 2-D input is transformed column-wise by
    log2(n) butterfly passes over the data, or over a C-contiguous copy that is then
    written back. Returns ``values``.
    """
    if not isinstance(values, np.ndarray) or values.ndim == 0:
        raise TypeError(f"fwht_in_place needs a numpy array with an axis 0, got {values!r}")
    a = np.ascontiguousarray(values)
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
    values[...] = a  # a no-op when a is values
    return values


def _hadamard_rows(n: int, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of the n x n Walsh-Hadamard matrix: entry (i, j) is (-1)^popcount(i & j)."""
    parity = np.arange(n)
    for shift in (32, 16, 8, 4, 2, 1):  # m's bit parity into bit 0; bitwise_count needs numpy 2
        parity ^= parity >> shift
    return (1.0 - 2.0 * (parity & 1))[rows[:, None] & np.arange(n)]


def srht_sketch(a: DenseMatrix, b: DenseMatrix, t: int, seed: int) -> SketchPair:
    """Subsampled randomized Hadamard transform sketch of the pair.

    The operator is sqrt(n_pad / t) P H D / sqrt(n_pad) on the rows zero-padded
    to the next power of two n_pad: D is a Rademacher diagonal read from stream
    (seed, 0), of which only the first n signs meet data, H the Walsh-Hadamard
    matrix, and P keeps t rows sampled uniformly with replacement from (seed, 1).

    Only the t kept rows of H D [A B] are computed: with n_pad = n1 n2 and
    n2 = 2^floor(log2(n_pad) / 2), H = H_{n1} kron H_{n2} on row j = j1 n2 + j2.
    Stage 1 multiplies the H_{n1} rows of the distinct high parts j1 into the
    signed data, as ceil(n / n2) blocks of n2 rows. Stage 2, one batched GEMM
    per chunk of parts, multiplies each part's block by its kept rows' H_{n2}
    rows, gathered once per chunk and zero-padded to its widest part, the first
    in an order by kept-row count: O(k (min(t, n1) n + t n2)) flops for k columns,
    run in up to four column panels, fewer if MAX_BLOCK_ENTRIES holds more. A draw holds
    each chunk's stack and scatter indices, built before the panels, one panel's signed copy
    and one chunk's stage-1 result, within MAX_BLOCK_ENTRIES unless a lone part exceeds it.
    """
    spec = SketchSpec(SketchKind.SRHT, t, seed)
    n = check_same_rows(a, b)
    n_pad = 1 << (n - 1).bit_length()
    signs = substream(seed, 0).integers(0, 2, n) * 2 - 1
    idx = substream(seed, 1).integers(0, n_pad, t)
    n2 = 1 << ((n_pad.bit_length() - 1) // 2)
    blocks = -(-n // n2)
    highs, group, width = np.unique(idx // n2, return_inverse=True, return_counts=True)
    order = np.argsort(-width, kind="stable")  # high parts by kept-row count, largest first
    group, width = np.argsort(order)[group], width[order]
    lows, low_row = np.unique(idx % n2, return_inverse=True)
    h1 = _hadamard_rows(n_pad // n2, highs[order])[:, :blocks]
    h2 = np.vstack([_hadamard_rows(n2, lows), np.zeros(n2)])  # a zero row pads each part
    rows = np.argsort(group, kind="stable")  # kept rows by high part
    part = group[rows]
    slot = np.arange(t) - np.searchsorted(part, part)
    stacked = np.full((highs.size, width[0]), lows.size)  # each part's rows of h2
    stacked[part, slot] = low_row[rows]
    scale = (signs * (1.0 / math.sqrt(t)))[:, None]

    def kept(x: np.ndarray) -> np.ndarray:
        k = x.shape[1]
        out = np.empty((t, k))
        panel = min(k, max(-(-k // 4), MAX_BLOCK_ENTRIES // (blocks * n2)))
        step = max(1, MAX_BLOCK_ENTRIES // (n2 * (panel + stacked.shape[1])))
        chunks = []  # per chunk: H_{n1} rows, H_{n2} stack, output rows, flat cells of its result
        for lo in range(0, highs.size, step):
            these = slice(*np.searchsorted(part, (lo, lo + step)))
            stack = h2[stacked[lo : lo + step, : width[lo]]]
            cells = (part[these] - lo) * width[lo] + slot[these]
            chunks.append((h1[lo : lo + step], stack, rows[these], cells))
        signed = np.zeros((blocks * n2, panel))  # a narrower last panel leaves columns unused
        for c in range(0, k, panel):
            cols, kp = slice(c, c + panel), min(panel, k - c)
            signed[:n, :kp] = x[:, cols]  # copy, then scale: faster than a product from strided x
            signed[:n, :kp] *= scale
            for h1_rows, stack, dest, cells in chunks:
                stage = (h1_rows @ signed.reshape(blocks, -1)).reshape(-1, n2, panel)
                out[dest, cols] = np.matmul(stack, stage).reshape(-1, panel)[cells, :kp]
        return out

    # A and B go through separate GEMMs of the same shapes, so equal inputs
    # give bitwise-equal sketches. _wrap raises on an overflowing product.
    with np.errstate(over="ignore", invalid="ignore"):
        a_sk = DenseMatrix._wrap(kept(a.array), "the sketch")
        b_sk = a_sk if b is a else DenseMatrix._wrap(kept(b.array), "the sketch")
    return SketchPair(a_sk, b_sk, spec, n)


def apply_spec(a: DenseMatrix, b: DenseMatrix, spec: SketchSpec) -> SketchPair:
    """Dispatch on spec.kind; the row-sampling kinds compute their probabilities here."""
    if spec.kind is SketchKind.GAUSSIAN:
        return gaussian_sketch(a, b, spec.t, spec.seed)
    if spec.kind is SketchKind.SRHT:
        return srht_sketch(a, b, spec.t, spec.seed)
    n = check_same_rows(a, b)
    probs = length_sampling_probs(a, b) if spec.kind is SketchKind.LENGTH_SAMPLE else np.full(n, 1.0 / n)
    return row_sample_sketch(a, b, probs, spec.t, spec.seed, kind=spec.kind)
