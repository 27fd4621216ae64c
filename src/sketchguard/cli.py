"""Command-line experiment runner.

Subcommands: ``sketch`` (compress a pair and store it), ``bootstrap``
(estimate the error quantile from stored or fresh sketches), ``plan``
(minimal sketch size for a target accuracy), ``oracle`` (Monte-Carlo ground
truth curve), and ``experiment`` (oracle curve plus repeated extrapolated
estimates, written as one CSV).

Option precedence is flags, then ``--config`` key=value file, then defaults.
Logs go to standard error; results go to stdout or the ``--out`` file.
Exit codes: 0 success, 2 usage or spec error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .booterr import (
    BootstrapConfig,
    BootstrapScheme,
    QuantileEstimate,
    bootstrap_quantile,
    budget_check,
    empirical_quantile,
    extrapolate,
    plan_sketch_size,
)
from .datagen import (
    LibsvmParseError,
    RankMode,
    SynthProfile,
    libsvm_load,
    normalize_gram_linf,
    synth_matrix,
)
from .matcore import DenseMatrix, RankDeficiencyError, ZeroMatrixError
from .oracle import QuantileCurve, mc_quantile_curve
from .parallel import run_indexed
from .rng import check_seed, derive_seed
from .sketch import (
    LengthSamplingError,
    SketchKind,
    SketchPair,
    SketchSpec,
    apply_spec,
)

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "SpecError",
    "run_experiment",
    "default_t_grid",
    "save_pair",
    "load_pair",
    "main",
    "entry",
]

LOG = logging.getLogger("sketchguard")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

CSV_HEADER = "t,oracle_q,oracle_lo,oracle_hi,est_mean,est_lo,est_hi"

# Stream tags keeping data generation, oracle draws, estimator sketches, and
# bootstrap weights on disjoint substreams of the one user seed.
_TAG_DATA = 0
_TAG_ORACLE = 1
_TAG_EST_SKETCH = 2
_TAG_EST_BOOT = 3


class SpecError(ValueError):
    """Invalid experiment specification or command-line usage."""


def default_t_grid(d: int) -> tuple[int, ...]:
    """Eight log-spaced sketch sizes from d/2 up to 10d."""
    lo = max(1, d // 2)
    hi = max(lo + 1, 10 * d)
    grid = np.unique(np.rint(np.geomspace(lo, hi, 8)).astype(int))
    return tuple(int(t) for t in grid)


@dataclass
class ExperimentSpec:
    """One full experiment: data matrix, sketch kind, and all protocol knobs.

    ``t0`` defaults to d/2 and ``t_grid`` to eight log-spaced points from d/2
    to 10d.
    """

    data_source: DenseMatrix
    kind: SketchKind
    t0: int | None = None
    t_grid: tuple[int, ...] | None = None
    alpha: float = 0.01
    boot_samples: int = 20
    scheme: BootstrapScheme = BootstrapScheme.MULTIPLIER
    oracle_reps: int = 400
    estimator_reps: int = 200
    seed: int = 0
    out: str | Path | None = None

    def validate(self) -> None:
        if not isinstance(self.data_source, DenseMatrix):
            raise SpecError("data_source must be a DenseMatrix")
        SketchKind(self.kind)
        BootstrapScheme(self.scheme)
        check_seed(self.seed)
        if not 0.0 < self.alpha < 0.5:
            raise SpecError(f"alpha must lie in (0, 1/2), got {self.alpha}")
        if self.boot_samples < 2:
            raise SpecError("boot_samples must be at least 2")
        if self.oracle_reps < 10:
            raise SpecError("oracle_reps must be at least 10")
        if self.estimator_reps < 1:
            raise SpecError("estimator_reps must be at least 1")
        if self.t0 is not None and self.t0 < 1:
            raise SpecError("t0 must be at least 1")
        if self.t_grid is not None:
            if not self.t_grid or any(t < 1 for t in self.t_grid):
                raise SpecError("t_grid entries must be positive")


@dataclass
class ExperimentResult:
    """Oracle curve plus per-t extrapolated-estimate statistics."""

    t0: int
    curve: QuantileCurve
    est_mean: tuple[float, ...]
    est_lo: tuple[float, ...]
    est_hi: tuple[float, ...]

    @property
    def rows(self) -> list[tuple]:
        """One (t, oracle_q, oracle_lo, oracle_hi, est_mean, est_lo, est_hi) row per t."""
        c = self.curve
        return list(zip(
            c.ts, c.values, c.band_low, c.band_high, self.est_mean, self.est_lo, self.est_hi
        ))


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Oracle curve, repeated extrapolated estimates, and the curve CSV.

    Draws ``oracle_reps`` sketch realizations per grid t for the ground-truth
    quantile, then ``estimator_reps`` independent t0-sketches, bootstrapping
    each and extrapolating across the grid. Writes ``spec.out`` when set:
    one row per t with the oracle value and its 10%/90% bands next to the
    mean extrapolated estimate and its 10%/90% percentiles.
    """
    spec.validate()
    matrix = spec.data_source
    d = matrix.cols
    t0 = spec.t0 if spec.t0 is not None else max(1, d // 2)
    grid = tuple(sorted(set(spec.t_grid))) if spec.t_grid else default_t_grid(d)
    if min(grid) < t0:
        LOG.warning(
            "t_grid contains sizes below t0=%d; extrapolation there runs backwards", t0
        )
    LOG.info(
        "experiment: %dx%d matrix, kind=%s, t0=%d, grid=%s",
        matrix.rows, d, SketchKind(spec.kind).value, t0, list(grid),
    )
    curve = mc_quantile_curve(
        matrix, matrix, spec.kind, grid, spec.oracle_reps, spec.alpha,
        derive_seed(spec.seed, _TAG_ORACLE),
    )
    LOG.info("oracle curve done (%d reps per t)", spec.oracle_reps)

    def one_estimate(r: int) -> QuantileEstimate:
        pair = apply_spec(
            matrix, matrix,
            SketchSpec(spec.kind, t0, derive_seed(spec.seed, _TAG_EST_SKETCH, r)),
        )
        cfg = BootstrapConfig(
            spec.scheme, spec.boot_samples, spec.alpha,
            derive_seed(spec.seed, _TAG_EST_BOOT, r),
        )
        return bootstrap_quantile(pair, cfg)

    estimates = run_indexed(one_estimate, spec.estimator_reps)
    LOG.info("estimator reps done (%d)", spec.estimator_reps)

    extrapolated = [np.array([extrapolate(e, t) for e in estimates]) for t in curve.ts]
    result = ExperimentResult(
        t0=t0, curve=curve,
        est_mean=tuple(float(ext.mean()) for ext in extrapolated),
        est_lo=tuple(empirical_quantile(ext, 0.1) for ext in extrapolated),
        est_hi=tuple(empirical_quantile(ext, 0.9) for ext in extrapolated),
    )
    if spec.out is not None:
        write_curve_csv(spec.out, result.rows)
        LOG.info("wrote %s", spec.out)
    return result


def write_curve_csv(path, rows, header: str = CSV_HEADER) -> None:
    """Write (t, value...) rows under a header, floats at 9 significant digits.

    Writes to standard output when ``path`` is None.
    """
    lines = [header]
    for t, *values in rows:
        lines.append(",".join([str(int(t))] + [f"{v:.9g}" for v in values]))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def save_pair(path, pair: SketchPair) -> None:
    """Store a sketch pair with its provenance as an .npz archive."""
    np.savez(
        path,
        a_sketch=pair.a_sketch.array,
        b_sketch=pair.b_sketch.array,
        kind=pair.spec.kind.value,
        t=np.uint64(pair.spec.t),
        seed=np.uint64(pair.spec.seed),
        source_rows=np.uint64(pair.source_rows),
    )


def load_pair(path) -> SketchPair:
    """Load a sketch pair stored by save_pair."""
    with np.load(path) as z:
        spec = SketchSpec(str(z["kind"]), int(z["t"]), int(z["seed"]))
        return SketchPair(
            DenseMatrix(z["a_sketch"]),
            DenseMatrix(z["b_sketch"]),
            spec,
            int(z["source_rows"]),
        )


# ---------------------------------------------------------------------------
# argument handling

def _to_int(s: str, name: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise SpecError(f"{name} must be an integer, got {s!r}") from None


def _to_float(s: str, name: str) -> float:
    try:
        value = float(s)
    except ValueError:
        raise SpecError(f"{name} must be a number, got {s!r}") from None
    if not math.isfinite(value):
        raise SpecError(f"{name} must be a finite number, got {s!r}")
    return value


def _to_grid(s: str, name: str = "t-grid") -> tuple[int, ...]:
    parts = [p.strip() for p in s.split(",") if p.strip()]
    if not parts:
        raise SpecError(f"{name} must be a comma-separated list of integers")
    return tuple(_to_int(p, name) for p in parts)


def _to_kind(s: str, name: str = "kind") -> SketchKind:
    try:
        return SketchKind(s)
    except ValueError:
        choices = ", ".join(k.value for k in SketchKind)
        raise SpecError(f"{name} must be one of: {choices}; got {s!r}") from None


def _to_scheme(s: str, name: str = "scheme") -> BootstrapScheme:
    try:
        return BootstrapScheme(s)
    except ValueError:
        choices = ", ".join(k.value for k in BootstrapScheme)
        raise SpecError(f"{name} must be one of: {choices}; got {s!r}") from None


def _to_bool(s: str, name: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise SpecError(f"{name} must be a boolean, got {s!r}")


def load_config(path) -> dict[str, str]:
    """Flat key=value file; blank lines and # comments are skipped."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise SpecError(f"{path}: line {line_no}: expected key=value")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


class _Options:
    """Merged view over parsed flags and the optional config file."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = load_config(args.config) if getattr(args, "config", None) else {}

    def get(self, name: str, convert=None, default=None):
        value = getattr(self.args, name.replace("-", "_"), None)
        if value is None:
            value = self.config.get(name.replace("-", "_"))
        if value is None:
            return default
        if convert is not None and isinstance(value, str):
            return convert(value, name)
        return value

    def require(self, name: str, convert=None):
        value = self.get(name, convert)
        if value is None:
            raise SpecError(f"missing required option --{name}")
        return value


def _want_normalize(opt: _Options) -> bool:
    if getattr(opt.args, "no_normalize", False):
        return False
    return opt.get("normalize", _to_bool, True)


def _resolve_cli_matrix(opt: _Options) -> DenseMatrix:
    data = opt.get("data")
    synth = opt.get("synth")
    if (data is None) == (synth is None):
        raise SpecError("exactly one of --data and --synth is required")
    if data is not None:
        matrix = libsvm_load(data)
        if _want_normalize(opt):
            matrix = normalize_gram_linf(matrix)
        return matrix
    parts = [p.strip() for p in str(synth).split(",")]
    if len(parts) != 3:
        raise SpecError("--synth takes n,d,low|high")
    n, d = _to_int(parts[0], "synth n"), _to_int(parts[1], "synth d")
    try:
        mode = RankMode(parts[2])
    except ValueError:
        raise SpecError(f"synth mode must be low or high, got {parts[2]!r}") from None
    seed = opt.get("seed", _to_int, 0)
    return synth_matrix(SynthProfile(n, d, mode, derive_seed(seed, _TAG_DATA)))


# ---------------------------------------------------------------------------
# subcommands

def _sketch_pair(opt: _Options) -> SketchPair:
    """Sketch the --data or --synth matrix against itself as the options say."""
    matrix = _resolve_cli_matrix(opt)
    t0 = opt.get("t0", _to_int, max(1, matrix.cols // 2))
    kind = opt.require("kind", _to_kind)
    seed = opt.get("seed", _to_int, 0)
    return apply_spec(matrix, matrix, SketchSpec(kind, t0, seed))


def cmd_sketch(args: argparse.Namespace) -> int:
    opt = _Options(args)
    out = opt.require("out")
    pair = _sketch_pair(opt)
    save_pair(out, pair)
    print(
        f"wrote {out}: kind={pair.spec.kind.value} t={pair.t} "
        f"from {pair.source_rows}x{pair.a_sketch.cols}"
    )
    return EXIT_OK


def cmd_bootstrap(args: argparse.Namespace) -> int:
    opt = _Options(args)
    pair_path = opt.get("pair")
    pair = load_pair(pair_path) if pair_path is not None else _sketch_pair(opt)
    cfg = BootstrapConfig(
        opt.get("scheme", _to_scheme, BootstrapScheme.MULTIPLIER),
        opt.get("boot-samples", _to_int, 20),
        opt.get("alpha", _to_float, 0.01),
        opt.get("seed", _to_int, 0),
    )
    est = bootstrap_quantile(pair, cfg)
    print(f"q_hat({est.t0}) = {est.value:.9g}")
    grid = opt.get("t-grid", _to_grid)
    if grid:
        rows = [(t, extrapolate(est, t)) for t in sorted(set(grid))]
        for t, value in rows:
            print(f"q_ext({t}) = {value:.9g}")
        out = opt.get("out")
        if out:
            write_curve_csv(out, rows, "t,q_ext")
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    opt = _Options(args)
    t0 = opt.require("t0", _to_int)
    qhat = opt.require("qhat", _to_float)
    epsilon = opt.require("epsilon", _to_float)
    alpha = opt.get("alpha", _to_float, 0.01)
    if qhat < 0:
        raise SpecError("qhat must be nonnegative")
    est = QuantileEstimate(t0=t0, alpha=alpha, value=qhat, samples=(qhat,))
    t = plan_sketch_size(est, epsilon)
    print(f"t = {t}")
    n = opt.get("n", _to_int)
    d = opt.get("d", _to_int)
    if n is not None and d is not None:
        b_samples = opt.get("boot-samples", _to_int, 20)
        ratio = budget_check(b_samples, t, t0, n, d)
        print(f"budget_ratio = {ratio:.9g}")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    opt = _Options(args)
    matrix = _resolve_cli_matrix(opt)
    kind = opt.require("kind", _to_kind)
    grid = opt.get("t-grid", _to_grid, default_t_grid(matrix.cols))
    alpha = opt.get("alpha", _to_float, 0.01)
    reps = opt.get("reps", _to_int, 400)
    seed = opt.get("seed", _to_int, 0)
    curve = mc_quantile_curve(
        matrix, matrix, kind, grid, reps, alpha, derive_seed(seed, _TAG_ORACLE)
    )
    rows = zip(curve.ts, curve.values, curve.band_low, curve.band_high)
    out = opt.get("out") or None
    write_curve_csv(out, rows, "t,oracle_q,oracle_lo,oracle_hi")
    if out:
        print(f"wrote {out}")
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    opt = _Options(args)
    out = opt.require("out")
    spec = ExperimentSpec(
        data_source=_resolve_cli_matrix(opt),
        kind=opt.require("kind", _to_kind),
        t0=opt.get("t0", _to_int),
        t_grid=opt.get("t-grid", _to_grid),
        alpha=opt.get("alpha", _to_float, 0.01),
        boot_samples=opt.get("boot-samples", _to_int, 20),
        scheme=opt.get("scheme", _to_scheme, BootstrapScheme.MULTIPLIER),
        oracle_reps=opt.get("oracle-reps", _to_int, 400),
        estimator_reps=opt.get("reps", _to_int, 200),
        seed=opt.get("seed", _to_int, 0),
        out=out,
    )
    result = run_experiment(spec)
    print(f"wrote {spec.out}: {len(result.rows)} grid points, t0={result.t0}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point

def _add_common(sp: argparse.ArgumentParser, *names: str) -> None:
    if "data" in names:
        sp.add_argument("--data", help="path to a LIBSVM text file")
        sp.add_argument("--synth", help="synthetic matrix as n,d,low|high")
        sp.add_argument(
            "--no-normalize", dest="no_normalize", action="store_true",
            help="skip scaling loaded data to unit Gram max-abs entry",
        )
    if "kind" in names:
        sp.add_argument("--kind", help="sketch operator: gaussian|uniform|length|srht")
    if "t0" in names:
        sp.add_argument("--t0", help="initial sketch size (default: d/2)")
    if "t-grid" in names:
        sp.add_argument("--t-grid", dest="t_grid", help="comma list of sketch sizes")
    if "alpha" in names:
        sp.add_argument("--alpha", help="quantile tail level (default 0.01)")
    if "boot" in names:
        sp.add_argument(
            "--boot-samples", dest="boot_samples",
            help="bootstrap replicates B (default 20)",
        )
        sp.add_argument("--scheme", help="bootstrap scheme: multiplier|nonparametric")
    if "seed" in names:
        sp.add_argument("--seed", help="base seed, 64-bit unsigned (default 0)")
    if "out" in names:
        sp.add_argument("--out", help="output file path")
    sp.add_argument("--config", help="key=value config file (flags override it)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchguard",
        description=(
            "Sketched matrix products with bootstrap estimates of the "
            "error-versus-sketch-size tradeoff."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sketch", help="sketch a matrix pair and store it")
    _add_common(sp, "data", "kind", "t0", "seed", "out")
    sp.set_defaults(func=cmd_sketch)

    sp = sub.add_parser("bootstrap", help="bootstrap the error quantile of a sketch pair")
    sp.add_argument("--pair", help="stored sketch pair (.npz) from the sketch command")
    _add_common(sp, "data", "kind", "t0", "t-grid", "alpha", "boot", "seed", "out")
    sp.set_defaults(func=cmd_bootstrap)

    sp = sub.add_parser("plan", help="minimal sketch size for a target accuracy")
    sp.add_argument("--qhat", help="estimated quantile at t0")
    sp.add_argument("--epsilon", help="target error bound")
    sp.add_argument("--n", help="source row count, enables the budget ratio")
    sp.add_argument("--d", help="column count, enables the budget ratio")
    _add_common(sp, "t0", "alpha", "boot", "seed")
    sp.set_defaults(func=cmd_plan)

    sp = sub.add_parser("oracle", help="Monte-Carlo ground-truth quantile curve")
    sp.add_argument("--reps", help="sketch realizations per grid point (default 400)")
    _add_common(sp, "data", "kind", "t-grid", "alpha", "seed", "out")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser(
        "experiment",
        help="oracle curve plus repeated extrapolated estimates, written as CSV",
    )
    sp.add_argument(
        "--reps",
        help="independent estimator repetitions (default 200, desk-scale substitute)",
    )
    sp.add_argument(
        "--oracle-reps", dest="oracle_reps",
        help="oracle realizations per grid point (default 400, desk-scale substitute)",
    )
    _add_common(sp, "data", "kind", "t0", "t-grid", "alpha", "boot", "seed", "out")
    sp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except SpecError as exc:
        LOG.error("%s", exc)
        return EXIT_USAGE
    except (LibsvmParseError, OSError, UnicodeDecodeError) as exc:
        LOG.error("data error: %s", exc)
        return EXIT_DATA
    except (RankDeficiencyError, ZeroMatrixError, LengthSamplingError) as exc:
        LOG.error("numerical failure: %s", exc)
        return EXIT_NUMERIC
    except ValueError as exc:
        LOG.error("%s", exc)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())
