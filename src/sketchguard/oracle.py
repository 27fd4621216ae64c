"""Brute-force ground truth for validating bootstrap error estimates.

These routines see the original matrices, which the bootstrap never does:
they evaluate the actual sketching error, estimate its quantile curve by
plain Monte Carlo over many sketch realizations, and measure how often an
extrapolated bootstrap bound actually covers the realized error.

Gaussian realizations are drawn in Gram space. Let ``[A B] = Q R`` be a
reduced QR, with m columns and k = min(n, m) rows in R. Q has orthonormal
columns, so ``S Q`` has i.i.d. N(0, 1/t) entries whenever S does, and
``[SA SB] = (S Q) R`` has the same law as ``G R`` for a t x k matrix G of
i.i.d. N(0, 1/t) entries. Each draw then costs O(t k m), independent of n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .booterr import BootstrapConfig, bootstrap_quantile, empirical_quantile, extrapolate
from .matcore import DenseMatrix, check_finite_result, matmul_t
from .parallel import run_indexed
from .rng import derive_seed, substream
from .sketch import (
    SketchKind, SketchPair, SketchSpec, apply_spec, length_sampling_probs, row_sample_sketch,
)

__all__ = ["QuantileCurve", "mc_quantile_curve", "coverage_probe"]


@dataclass(frozen=True)
class QuantileCurve:
    """Ordered (t, value) quantile points with optional percentile bands."""

    alpha: float
    points: tuple[tuple[int, float], ...]
    band_low: tuple[float, ...] | None
    band_high: tuple[float, ...] | None
    reps: int

    def __post_init__(self):
        ts = [t for t, _ in self.points]
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError("t values must be strictly increasing")
        if any(v < 0 for _, v in self.points):
            raise ValueError("quantile values must be nonnegative")
        bands = (self.band_low, self.band_high)
        if (bands[0] is None) != (bands[1] is None):
            raise ValueError("band_low and band_high must be given together")
        if bands[0] is not None:
            if len(bands[0]) != len(self.points) or len(bands[1]) != len(self.points):
                raise ValueError("bands must parallel the points")
            if any(lo > hi for lo, hi in zip(*bands)):
                raise ValueError("band_low must not exceed band_high")

    @property
    def ts(self) -> tuple[int, ...]:
        return tuple(t for t, _ in self.points)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.points)


def pair_sampler(a: DenseMatrix, b: DenseMatrix, kind: SketchKind):
    """Return ``draw(t, seed) -> SketchPair``, one sketch realization per call.

    For Gaussian sketches the pair is ``G R`` (see the module docstring), with
    G drawn from the stream (seed, 0); it has the law of ``gaussian_sketch``'s
    pair, not its bits. R comes from one QR of the data, which need not have
    full rank. Length sampling computes its probabilities once, here. Every
    other kind is ``apply_spec`` itself.
    """
    kind = SketchKind(kind)
    if kind is SketchKind.LENGTH_SAMPLE:
        probs = length_sampling_probs(a, b)
        return lambda t, seed: row_sample_sketch(a, b, probs, t, seed, kind=kind)
    if kind is not SketchKind.GAUSSIAN:
        return lambda t, seed: apply_spec(a, b, SketchSpec(kind, t, seed))
    if a.rows != b.rows:
        raise ValueError(f"row counts differ: {a.rows} vs {b.rows}")
    r = np.linalg.qr(a.array if b is a else np.hstack([a.array, b.array]), mode="r")
    r_a, r_b = r[:, : a.cols], r[:, a.cols :]

    def draw(t: int, seed: int) -> SketchPair:
        spec = SketchSpec(kind, t, seed)
        g = substream(seed, 0).standard_normal((t, r.shape[0]))
        g *= 1.0 / math.sqrt(t)
        a_sk = DenseMatrix._wrap(g @ r_a)
        b_sk = a_sk if b is a else DenseMatrix._wrap(g @ r_b)
        return SketchPair(a_sk, b_sk, spec, a.rows)

    return draw


def mc_quantile_curve(
    a: DenseMatrix,
    b: DenseMatrix,
    kind: SketchKind,
    t_grid,
    reps: int,
    alpha: float,
    seed: int,
    band_percentiles: tuple[float, float] = (0.1, 0.9),
) -> QuantileCurve:
    """Monte-Carlo estimate of the (1 - alpha) error quantile over a t grid.

    Draws ``reps`` independent sketch pairs from ``pair_sampler`` at the
    largest grid size t_max, realization r seeded from (seed, r). Every kind's
    sketch is t i.i.d. rows scaled by 1/sqrt(t), so the first t rows of a
    draw, rescaled by sqrt(t_max / t), are an exact draw at size t: one
    realization serves every grid t. Each t's error therefore has its exact
    law, while errors at different t of one realization are correlated.
    Records per t the interpolated sample quantile of the realized errors,
    plus percentile bands (defaults 10% and 90%). The quantile value sits
    inside the bands only when 1-alpha lies between the band percentiles.
    """
    if reps < 10:
        raise ValueError(f"need at least 10 realizations per t, got {reps}")
    grid = sorted(set(int(t) for t in t_grid))
    if not grid:
        raise ValueError("t_grid must be nonempty")
    if grid[0] < 1:
        raise ValueError(f"sketch sizes in t_grid must be at least 1, got {grid[0]}")
    lo_p, hi_p = band_percentiles
    if not 0.0 < lo_p < hi_p < 1.0:
        raise ValueError(f"band percentiles must satisfy 0 < lo < hi < 1, got {band_percentiles}")
    truth = matmul_t(a, b).array  # first, so an overflowing A^T B is what gets reported
    draw = pair_sampler(a, b, kind)
    t_max = grid[-1]

    def errors(r: int) -> list[float]:
        pair = draw(t_max, derive_seed(seed, r))
        xa, xb = pair.a_sketch.array, pair.b_sketch.array
        with np.errstate(over="ignore", invalid="ignore"):
            return [float(np.abs((xa[:t].T @ xb[:t]) * (t_max / t) - truth).max()) for t in grid]

    errs = check_finite_result(np.array(run_indexed(errors, reps)), "a sketching error")
    cols = errs.T
    return QuantileCurve(
        alpha=alpha,
        points=tuple((t, empirical_quantile(e, 1.0 - alpha)) for t, e in zip(grid, cols)),
        band_low=tuple(empirical_quantile(e, lo_p) for e in cols),
        band_high=tuple(empirical_quantile(e, hi_p) for e in cols),
        reps=reps,
    )


def coverage_probe(
    a: DenseMatrix,
    b: DenseMatrix,
    kind: SketchKind,
    t0: int,
    t: int,
    cfg: BootstrapConfig,
    trials: int,
    seed: int,
) -> float:
    """Fraction of trials where the extrapolated bound covers a fresh error draw.

    Each trial bootstraps a new t0-pair (bootstrap streams are re-keyed per
    trial from cfg.seed), extrapolates the quantile to t, then draws an
    independent t-pair and checks whether its realized error stays below the
    bound. Targets roughly 1 - alpha when the estimate is calibrated.
    """
    if not 1 <= t0 <= t:
        raise ValueError(f"need t >= t0 >= 1, got t0={t0}, t={t}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    draw = pair_sampler(a, b, kind)
    truth = matmul_t(a, b).array

    def one_trial(i: int) -> bool:
        pair0 = draw(t0, derive_seed(seed, i, 0))
        est = bootstrap_quantile(pair0, replace(cfg, seed=derive_seed(cfg.seed, i)))
        bound = extrapolate(est, t)
        pair_t = draw(t, derive_seed(seed, i, 1))
        eps = float(np.abs(pair_t.sketched_product - truth).max())
        return eps <= bound

    hits = run_indexed(one_trial, trials)
    return sum(hits) / trials
