"""Brute-force ground truth for validating bootstrap error estimates.

These routines see the original matrices, which the bootstrap never does:
they evaluate the actual sketching error and estimate its quantile curve by
plain Monte Carlo over many sketch realizations, keeping the realized errors
so that the coverage of an extrapolated bootstrap bound can be scored.

A realization serves every grid size t_1 < ... < t_max: its Gram matrix
grows by one increment per grid step, and its error at t_j is
``max|gram * t_max / t_j - A^T B|``, one scorer for every kind. For row
kinds, the increment of step j is rows t_{j-1}:t_j of a draw at t_max.

Gaussian realizations are drawn in Gram space. Let ``[A B] = Q R`` be a
reduced QR, with m columns and k = min(n, m) rows in R. Q has orthonormal
columns, so ``S Q`` has i.i.d. N(0, 1/t) entries whenever S does, and
``[SA SB] = (S Q) R`` has the law of ``G R`` for a t x k matrix G of such
entries. So the increment of a step of Δ rows is ``R^T W R`` with
W = G_Δ^T G_Δ Wishart(k, Δ). For Δ <= k the oracle draws G_Δ; for Δ > k
it draws W's Bartlett factor (Bartlett 1933; Odell & Feiveson 1966),
k(k + 1)/2 numbers instead of Δ k. A draw costs O(t_max k m), whatever n.
Gaussian realizations run in blocks of ``BLOCK`` through batched
``np.matmul``. The experiment's estimator reps need real sketch rows, so
they draw ``gaussian_sketch`` on R through ``pair_sampler``, from the same QR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .booterr import empirical_quantile
from .matcore import DenseMatrix, check_finite_result, check_same_rows, matmul_t
from .parallel import run_indexed, thread_policy
from .rng import derive_seed, substream
from .sketch import (
    SketchKind, SketchPair, SketchSpec, apply_spec, gaussian_sketch, length_sampling_probs,
    row_sample_sketch,
)

__all__ = ["QuantileCurve", "mc_quantile_curve"]

# Gaussian realizations per pool item of mc_quantile_curve; the errors do not depend on it.
# Blocks of 10 ran about as fast, but their buffers raised the peak RSS of a
# 2048 x 64 experiment loop on two workers by 2-4 MB; blocks of 6 held it.
BLOCK = 6


@dataclass(frozen=True)
class QuantileCurve:
    """Per-t (1 - alpha) quantiles and 10%/90% bands, derived from the (reps x t) errors."""

    alpha: float
    ts: tuple[int, ...]
    errors: np.ndarray = field(compare=False, repr=False)
    values: tuple[float, ...] = field(init=False)
    band_low: tuple[float, ...] = field(init=False)
    band_high: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        if any(t2 <= t1 for t1, t2 in zip(self.ts, self.ts[1:])):
            raise ValueError("t values must be strictly increasing")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        errs = np.array(self.errors, dtype=np.float64)  # a read-only copy, so callers keep theirs
        errs.flags.writeable = False
        object.__setattr__(self, "errors", errs)
        if errs.ndim != 2 or errs.shape[1] != len(self.ts) or errs.size == 0:
            raise ValueError("errors must be a nonempty 2-D array with one column per t value")
        if (errs < 0).any():
            raise ValueError("realized errors are nonnegative")
        for name, p in (("values", 1.0 - self.alpha), ("band_low", 0.1), ("band_high", 0.9)):
            object.__setattr__(self, name, tuple(empirical_quantile(e, p) for e in errs.T))

    @property
    def reps(self) -> int:
        return self.errors.shape[0]


@dataclass(frozen=True)
class GramSampler:
    """Gaussian draws in Gram space: R of ``[A B] = Q R``, split by columns.

    Calling it is ``draw(t, seed)``: ``gaussian_sketch`` on R, with the data's
    row count as ``source_rows``. A draw has the law of ``gaussian_sketch``'s
    pair on the data, not its bits. ``r_b`` is ``r_a`` when B is A.
    """

    r_a: DenseMatrix
    r_b: DenseMatrix
    source_rows: int

    def __call__(self, t: int, seed: int) -> SketchPair:
        return replace(gaussian_sketch(self.r_a, self.r_b, t, seed), source_rows=self.source_rows)


def pair_sampler(a: DenseMatrix, b: DenseMatrix, kind: SketchKind):
    """Return ``draw(t, seed) -> SketchPair``, one sketch realization per call.

    For Gaussian sketches it is a ``GramSampler`` on R from one QR of the data,
    which need not have full rank. Length sampling computes its probabilities
    once, here. Every other kind is ``apply_spec`` itself.
    """
    kind = SketchKind(kind)
    if kind is SketchKind.LENGTH_SAMPLE:
        probs = length_sampling_probs(a, b)
        return lambda t, seed: row_sample_sketch(a, b, probs, t, seed, kind=kind)
    if kind is not SketchKind.GAUSSIAN:
        return lambda t, seed: apply_spec(a, b, SketchSpec(kind, t, seed))
    check_same_rows(a, b)
    r = np.linalg.qr(a.array if b is a else np.hstack([a.array, b.array]), mode="r")
    r_a = DenseMatrix._wrap(r[:, : a.cols])
    return GramSampler(r_a, r_a if b is a else DenseMatrix._wrap(r[:, a.cols :]), a.rows)


def gaussian_increments(r_a: np.ndarray, r_b: np.ndarray, steps, seeds):
    """Yield, per grid step, the Gram-space rows it adds to each Gaussian realization.

    Realization i draws from stream (seeds[i], 0): the N(0, 1) entries of Z for
    every step of Δ <= k rows, row-major in step order, then the off-diagonal
    normals of each Bartlett factor, then its chi-squares. A step of Δ > k
    yields ``U R``, with U upper triangular: N(0, 1) above the diagonal,
    ``sqrt(chisquare(Δ - i))`` at diagonal entry i, so that U^T U is
    Wishart(k, Δ). A smaller step yields ``Z R``. Everything is scaled by
    1/sqrt(t_max), as the rows of a sketch at t_max are. Each yield is
    ``(Y_a, Y_b)``, stacked over the realizations; ``Y_b`` is ``Y_a`` when
    ``r_b`` is ``r_a``.
    """
    k, count = r_a.shape[0], len(seeds)
    small = sum(d for d in steps if d <= k) * k
    big = [d for d in steps if d > k]
    upper = np.triu_indices(k, 1)
    diag = np.arange(k)
    normals = np.empty((count, small + len(big) * upper[0].size))
    chi = np.empty((count, len(big) * k))
    df = np.array([d - i for d in big for i in range(k)], dtype=np.float64)
    for i, s in enumerate(seeds):
        gen = substream(s, 0)
        gen.standard_normal(out=normals[i])
        chi[i] = gen.chisquare(df)
    scale = 1.0 / math.sqrt(sum(steps))
    normals *= scale
    np.sqrt(chi, out=chi)
    chi *= scale
    # One buffer each for every step's factor and rows: fewer large allocations, less heap growth.
    factor = np.zeros((count, k, k))  # a Bartlett step fills the upper triangle; the rest stays 0
    y_a = np.empty((count, k, r_a.shape[1]))
    y_b = y_a if r_b is r_a else np.empty((count, k, r_b.shape[1]))
    z_at, tri_at, chi_at = 0, small, 0
    for d in steps:
        if d <= k:
            x = normals[:, z_at : z_at + d * k].reshape(count, d, k)
            z_at += d * k
        else:
            factor[:, upper[0], upper[1]] = normals[:, tri_at : tri_at + upper[0].size]
            factor[:, diag, diag] = chi[:, chi_at : chi_at + k]
            x, tri_at, chi_at = factor, tri_at + upper[0].size, chi_at + k
        rows = min(d, k)
        step_a = np.matmul(x, r_a, out=y_a[:, :rows])
        yield step_a, step_a if y_b is y_a else np.matmul(x, r_b, out=y_b[:, :rows])


def _row_increments(draw, steps, seeds):
    """Yield, per grid step, views of that step's rows of the one seed's draw at t_max."""
    pair = draw(sum(steps), *seeds)  # row kinds run one realization a pool item
    x_a, x_b = pair.a_sketch.array[None], pair.b_sketch.array[None]
    lo = 0
    for d in steps:
        yield x_a[:, lo : lo + d], x_b[:, lo : lo + d]
        lo += d


def _running_errors(increments, grid, truth: np.ndarray) -> np.ndarray:
    """Errors (realizations x grid t) from each step's rows, summed into one Gram matrix."""
    t_max = grid[-1]
    errors, gram, step = [], 0.0, None
    with np.errstate(over="ignore", invalid="ignore"):
        for (y_a, y_b), t in zip(increments, grid):
            step = np.matmul(y_a.transpose(0, 2, 1), y_b, out=step)
            gram += step  # a new array at the first step, then in place
            np.multiply(gram, t_max / t, out=step)
            step -= truth
            errors.append(np.abs(step, out=step).max(axis=(1, 2)))
    return np.stack(errors, axis=1)


def mc_quantile_curve(
    a: DenseMatrix,
    b: DenseMatrix,
    kind: SketchKind,
    t_grid,
    reps: int,
    alpha: float,
    seed: int,
    *,
    make_sampler=None,
) -> QuantileCurve:
    """Monte-Carlo estimate of the (1 - alpha) error quantile over a t grid.

    Realization r draws from seed (seed, r) once and serves every grid t: its
    Gram matrix grows by one increment per grid step (see the module
    docstring), so each t's error has its exact law, while errors at
    different t of one realization are correlated. Records per t the
    interpolated sample quantile of the realized errors, plus their 10% and
    90% percentile bands. The quantile value sits inside the bands only when
    1-alpha lies between 0.1 and 0.9. ``make_sampler()``, once A^T B is
    checked, gives the ``pair_sampler``, so a caller can share its factoring.
    Runs under ``thread_policy``, Gaussian realizations in blocks of
    ``BLOCK``; the errors do not depend on either.
    """
    if reps < 10:
        raise ValueError(f"need at least 10 realizations per t, got {reps}")
    grid = sorted(set(int(t) for t in t_grid))
    if not grid:
        raise ValueError("t_grid must be nonempty")
    if grid[0] < 1:
        raise ValueError(f"sketch sizes in t_grid must be at least 1, got {grid[0]}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    steps = [t - s for s, t in zip([0] + grid, grid)]
    with thread_policy():
        truth = matmul_t(a, b).array  # first, so an overflowing A^T B is what gets reported
        draw = make_sampler() if make_sampler is not None else pair_sampler(a, b, kind)
        if SketchKind(kind) is SketchKind.GAUSSIAN:
            increments = partial(gaussian_increments, draw.r_a.array, draw.r_b.array, steps)
            block = BLOCK
        else:  # a row-kind draw takes milliseconds: blocks would only leave workers idle
            increments, block = partial(_row_increments, draw, steps), 1

        def errors(i: int) -> np.ndarray:
            seeds = [derive_seed(seed, r) for r in range(i * block, min(reps, (i + 1) * block))]
            return _running_errors(increments(seeds), grid, truth)

        errs = np.concatenate(run_indexed(errors, -(-reps // block)))
    return QuantileCurve(alpha, tuple(grid), check_finite_result(errs, "a sketching error"))
