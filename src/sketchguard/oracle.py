"""Brute-force ground truth for validating bootstrap error estimates.

These routines see the original matrices, which the bootstrap never does:
they evaluate the actual sketching error and estimate its quantile curve by
plain Monte Carlo over many sketch realizations, keeping the realized errors
so that the coverage of an extrapolated bootstrap bound can be scored.

Gaussian realizations are drawn in Gram space. Let ``[A B] = Q R`` be a
reduced QR, with m columns and k = min(n, m) rows in R. Q has orthonormal
columns, so ``S Q`` has i.i.d. N(0, 1/t) entries whenever S does, and
``[SA SB] = (S Q) R`` has the same law as ``G R`` for a t x k matrix G of
i.i.d. N(0, 1/t) entries. So the oracle applies ``gaussian_sketch`` to R,
and each draw costs O(t k m), independent of n.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .booterr import empirical_quantile
from .matcore import DenseMatrix, check_finite_result, check_same_rows, matmul_t
from .parallel import run_indexed, thread_policy
from .rng import derive_seed
from .sketch import (
    SketchKind, SketchSpec, apply_spec, gaussian_sketch, length_sampling_probs, row_sample_sketch,
)

__all__ = ["QuantileCurve", "mc_quantile_curve"]


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


def pair_sampler(a: DenseMatrix, b: DenseMatrix, kind: SketchKind):
    """Return ``draw(t, seed) -> SketchPair``, one sketch realization per call.

    For Gaussian sketches the oracle applies ``gaussian_sketch`` to R (see the
    module docstring) and keeps the data's row count as ``source_rows``; a
    draw has the law of ``gaussian_sketch``'s pair on the data, not its bits.
    R comes from one QR of the data, which need not have full rank. Length
    sampling computes its probabilities once, here. Every other kind is
    ``apply_spec`` itself.
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
    r_b = r_a if b is a else DenseMatrix._wrap(r[:, a.cols :])
    return lambda t, seed: replace(gaussian_sketch(r_a, r_b, t, seed), source_rows=a.rows)


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

    Draws ``reps`` independent sketch pairs from ``pair_sampler`` at the
    largest grid size t_max, realization r seeded from (seed, r). Every kind's
    sketch is t i.i.d. rows scaled by 1/sqrt(t), so the first t rows of a
    draw, rescaled by sqrt(t_max / t), are an exact draw at size t: one
    realization serves every grid t. Each t's error therefore has its exact
    law, while errors at different t of one realization are correlated.
    Records per t the interpolated sample quantile of the realized errors,
    plus their 10% and 90% percentile bands. The quantile value sits inside
    the bands only when 1-alpha lies between 0.1 and 0.9. ``make_sampler()``,
    once A^T B is checked, gives the sampler, so a caller can share its factoring.
    Runs under ``thread_policy``.
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
    t_max = grid[-1]
    with thread_policy():
        truth = matmul_t(a, b).array  # first, so an overflowing A^T B is what gets reported
        draw = make_sampler() if make_sampler is not None else pair_sampler(a, b, kind)

        def errors(r: int) -> list[float]:
            pair = draw(t_max, derive_seed(seed, r))
            xa, xb = pair.a_sketch.array, pair.b_sketch.array
            with np.errstate(over="ignore", invalid="ignore"):
                return [float(np.abs((xa[:t].T @ xb[:t]) * (t_max / t) - truth).max())
                        for t in grid]

        errs = check_finite_result(np.array(run_indexed(errors, reps)), "a sketching error")
    return QuantileCurve(alpha, tuple(grid), errs)

