"""Bootstrap estimation of the sketching-error quantile, with extrapolation.

The error of a sketched product fluctuates with the draw of S. Working only
from the sketches, one kernel generates surrogate draws of that error: it
weights the t row contributions by a vector xi and evaluates
max-abs of (xibar * (A~^T B~) - A~^T diag(xi) B~). The two schemes differ
only in the weights:

* multiplier scheme: i.i.d. standard normal weights;
* non-parametric scheme: the counts of t rows resampled with replacement,
  minus one, which reproduces the error of the jointly resampled product.

The B weight vectors are the rows of one (B, t) matrix read row-major from
one Philox stream, which no sketch kind reads, and each block of rows is
scored by batched products. When A~ and B~ are one matrix each product is
symmetric, so only its upper block triangle is computed.

The (1 - alpha) interpolated quantile of B such samples estimates the
tightest error bound holding with probability 1 - alpha at the current
sketch size t0, and the inverse-square-root scaling of that bound in t
extrapolates the estimate to larger sketch sizes and plans the minimal t
for a target accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .matcore import check_finite_result
from .rng import check_seed, substream
from .sketch import SketchPair

# bootstrap_quantile scores replicates in blocks; a block's largest
# temporaries, its scaled copies of B~ and its products A~^T (.) B~, hold at
# most this many entries, so peak memory does not grow with B.
MAX_BOOT_BLOCK_ENTRIES = 1 << 17

# Key of the weight stream under the bootstrap seed. The sketch kinds read
# keys 0 and 1 under theirs, so a sketch and a bootstrap given the same seed
# still draw independently.
BOOT_STREAM_KEY = 2

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
    """A bootstrap estimate at t0; ``value`` is the (1 - alpha) quantile of its ``samples``."""

    t0: int
    alpha: float
    samples: tuple[float, ...]
    value: float = field(init=False)

    def __post_init__(self):
        if self.t0 < 1:
            raise ValueError("t0 must be at least 1")
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"alpha must lie in (0, 1/2), got {self.alpha}")
        object.__setattr__(self, "value", empirical_quantile(self.samples, 1.0 - self.alpha))
        object.__setattr__(self, "samples", tuple(np.asarray(self.samples, np.float64).tolist()))
        if min(self.samples) < 0.0:
            raise ValueError("bootstrap samples are nonnegative")


def multiplier_error(pair: SketchPair, weights) -> np.ndarray:
    """Perturbation errors for a (B, t) matrix of weights, one per row.

    Row b gives max-abs of (xibar * (A~^T B~) - A~^T diag(xi) B~) for its
    weights xi, without materializing diag(xi): the two terms combine into
    one product of A~^T with the rows of B~ scaled by (xibar - xi), and the
    B products run as batched matmuls. When the pair is one matrix that
    product is symmetric, so its d columns split into up to four row groups
    of at least 16, and group [lo, hi) is multiplied only into columns lo
    onward: the upper block triangle holds the same max-abs at 5/8 of the
    flops for four groups. Two matrices, or d < 32, run one full group.
    """
    w = np.asarray(weights, dtype=np.float64)
    t = pair.t
    if w.ndim != 2 or w.shape[1] != t:
        raise ValueError(f"weights must have shape (B, {t}), got {w.shape}")
    a, b = pair.a_sketch.array, pair.b_sketch.array
    scaled = (w.mean(axis=1, keepdims=True) - w)[:, :, None] * b
    d = a.shape[1]
    groups = max(1, min(4, d // 16)) if pair.b_sketch is pair.a_sketch else 1
    out = None
    for k in range(groups):
        lo = k * d // groups
        m = np.matmul(a[:, lo : (k + 1) * d // groups].T, scaled[:, :, lo:])
        top = np.abs(m, out=m).max(axis=(1, 2))
        out = top if out is None else np.maximum(out, top, out=out)
    return out


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


def _weights(scheme: BootstrapScheme, gen: np.random.Generator, rows: int, t: int) -> np.ndarray:
    """Weights of the next ``rows`` replicates: normals, or resampling counts minus one."""
    if scheme is BootstrapScheme.MULTIPLIER:
        return gen.standard_normal((rows, t))
    idx = gen.integers(0, t, (rows, t)) + t * np.arange(rows)[:, None]
    return (np.bincount(idx.ravel(), minlength=rows * t) - 1).reshape(rows, t)


def bootstrap_quantile(pair: SketchPair, cfg: BootstrapConfig) -> QuantileEstimate:
    """Run B replicates of the configured scheme and take the (1 - alpha) quantile.

    Replicate b's weights are row b of a (B, t) matrix read row-major from
    the one stream (cfg.seed, BOOT_STREAM_KEY). The rows are read and scored
    in blocks whose temporaries hold at most MAX_BOOT_BLOCK_ENTRIES entries
    (or one replicate's). The stream's draws do not depend on how they are split, so
    the samples do not depend on the block size, and runs are prefix-stable:
    increasing the replicate count reproduces the earlier samples. A sample
    that overflows raises NonFiniteResultError. A one-row sketch raises
    ValueError: its every replicate's error is exactly 0, whatever the data.
    """
    t, da, db = pair.t, pair.a_sketch.cols, pair.b_sketch.cols
    if t < 2:
        raise ValueError(f"the bootstrap needs a sketch of at least 2 rows, got {t}: "
                         "with one row every replicate's error is exactly 0")
    block = max(1, MAX_BOOT_BLOCK_ENTRIES // (max(t, da) * db))
    gen = substream(cfg.seed, BOOT_STREAM_KEY)
    samples = np.empty(cfg.replicates)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, cfg.replicates, block):
            stop = min(cfg.replicates, start + block)
            samples[start:stop] = multiplier_error(
                pair, _weights(cfg.scheme, gen, stop - start, t)
            )
    check_finite_result(samples, "a bootstrap sample")
    return QuantileEstimate(t0=t, alpha=cfg.alpha, samples=samples)


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

    Ceiling of t0 * (value / epsilon)^2, floored at 1, so a zero estimate
    plans 1. Raises ValueError when epsilon is not positive (NaN included)
    or that size is not a finite number.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
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
