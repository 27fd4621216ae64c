"""Bootstrap estimation of the sketching-error quantile, with extrapolation.

The error of a sketched product fluctuates with the draw of S. Working only
from the sketches, one kernel generates surrogate draws of that error: it
weights the t row contributions by a vector xi and evaluates
max-abs of (xibar * (A~^T B~) - A~^T diag(xi) B~). The two schemes differ
only in the weights:

* multiplier scheme: i.i.d. standard normal weights;
* non-parametric scheme: the counts of t rows resampled with replacement,
  minus one, which reproduces the error of the jointly resampled product.

The (1 - alpha) interpolated quantile of B such samples estimates the
tightest error bound holding with probability 1 - alpha at the current
sketch size t0, and the inverse-square-root scaling of that bound in t
extrapolates the estimate to larger sketch sizes and plans the minimal t
for a target accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .rng import check_seed, substream
from .sketch import SketchPair

__all__ = [
    "BootstrapScheme",
    "BootstrapConfig",
    "QuantileEstimate",
    "multiplier_error",
    "empirical_quantile",
    "bootstrap_quantile",
    "extrapolate",
    "plan_sketch_size",
    "budget_check",
]


class BootstrapScheme(str, Enum):
    MULTIPLIER = "multiplier"
    NONPARAMETRIC = "nonparametric"


@dataclass(frozen=True)
class BootstrapConfig:
    """Scheme, replicate count, quantile level, and base seed."""

    scheme: BootstrapScheme
    replicates: int
    alpha: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "scheme", BootstrapScheme(self.scheme))
        if self.replicates < 2:
            raise ValueError(f"need at least 2 replicates, got {self.replicates}")
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"alpha must lie in (0, 1/2), got {self.alpha}")
        object.__setattr__(self, "seed", check_seed(self.seed))


@dataclass(frozen=True)
class QuantileEstimate:
    """A bootstrap quantile at sketch size t0, with the replicate samples kept.

    ``value`` is the (1 - alpha) interpolated quantile of ``samples`` and can
    be re-derived from them.
    """

    t0: int
    alpha: float
    value: float
    samples: tuple[float, ...]

    def __post_init__(self):
        if self.t0 < 1:
            raise ValueError("t0 must be at least 1")
        if not self.samples:
            raise ValueError("samples must be nonempty")
        if self.value < 0.0 or any(s < 0.0 for s in self.samples):
            raise ValueError("bootstrap samples and their quantile are nonnegative")


def multiplier_error(pair: SketchPair, xi) -> float:
    """Perturbation error for one vector of multiplier weights.

    Evaluates max-abs of (xibar * (A~^T B~) - A~^T diag(xi) B~) without
    materializing diag(xi): the two terms combine into a single product of
    A~^T with the rows of B~ scaled by (xibar - xi).
    """
    w = np.asarray(xi, dtype=np.float64)
    t = pair.t
    if w.shape != (t,):
        raise ValueError(f"weights must have shape ({t},), got {w.shape}")
    a = pair.a_sketch.array
    b = pair.b_sketch.array
    m = a.T @ ((w.mean() - w)[:, None] * b)
    return float(np.abs(m).max())


def empirical_quantile(samples, p: float) -> float:
    """Interpolated sample quantile at level p.

    With B sorted values, the rank is h = (B - 1) p + 1; the result linearly
    interpolates between the floor(h)-th and next order statistic, clamping
    at the top.
    """
    vals = np.asarray(samples, dtype=np.float64)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("samples must be a nonempty 1-D collection")
    if not np.isfinite(vals).all():
        raise ValueError("samples must be finite")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    vals = np.sort(vals)
    pos = (vals.size - 1) * p
    lo = int(pos)
    hi = min(lo + 1, vals.size - 1)
    frac = pos - lo
    return float(vals[lo] + frac * (vals[hi] - vals[lo]))


def _weights(scheme: BootstrapScheme, rng: np.random.Generator, t: int) -> np.ndarray:
    """One replicate's weights: standard normals, or resampling counts minus one."""
    if scheme is BootstrapScheme.MULTIPLIER:
        return rng.standard_normal(t)
    return np.bincount(rng.integers(0, t, t), minlength=t) - 1


def bootstrap_quantile(pair: SketchPair, cfg: BootstrapConfig) -> QuantileEstimate:
    """Run B replicates of the configured scheme and take the (1 - alpha) quantile.

    Replicate b draws its weight vector from stream (cfg.seed, b), so runs
    are prefix-stable: increasing the replicate count reproduces the earlier
    samples.
    """
    samples = tuple(
        multiplier_error(pair, _weights(cfg.scheme, substream(cfg.seed, b), pair.t))
        for b in range(cfg.replicates)
    )
    value = empirical_quantile(samples, 1.0 - cfg.alpha)
    return QuantileEstimate(t0=pair.t, alpha=cfg.alpha, value=value, samples=samples)


def extrapolate(est: QuantileEstimate, t: int) -> float:
    """Predict the quantile at sketch size t from the estimate at t0.

    The error quantile shrinks like 1/sqrt(t), so the estimate carries over
    as sqrt(t0 / t) times the value at t0.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    return math.sqrt(est.t0 / t) * est.value


def plan_sketch_size(est: QuantileEstimate, epsilon: float) -> int:
    """Smallest t whose extrapolated quantile is at most epsilon.

    Ceiling of t0 * (value / epsilon)^2, floored at 1. A zero estimate means
    any sketch size passes, so 1 is returned. Raises ValueError when that
    size is not a finite number.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if est.value == 0.0:
        return 1
    try:
        size = est.t0 * (est.value / epsilon) ** 2
    except OverflowError:
        size = math.inf
    if not math.isfinite(size):
        raise ValueError(
            f"t0 * (value / epsilon)^2 is not finite for t0={est.t0}, "
            f"value={est.value!r}, epsilon={epsilon!r}"
        )
    return max(1, math.ceil(size))


def budget_check(b_samples: int, t: int, t0: int, n: int, d: int) -> float:
    """Bootstrap cost relative to the sketching cost it accompanies.

    Returns B / (t/t0 + n ln(t) / (d t0)) with the hidden constant taken as
    1. Advisory, not a gate: at most 1 means the B replicates at size t0 are
    dominated by the cost of sketching n rows down to t.
    """
    for name, v in (("b_samples", b_samples), ("t", t), ("t0", t0), ("n", n), ("d", d)):
        if v < 1:
            raise ValueError(f"{name} must be at least 1, got {v}")
    return b_samples / (t / t0 + n * math.log(t) / (d * t0))
