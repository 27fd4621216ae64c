"""Command-line experiment runner.

Subcommands: ``sketch`` (compress a pair and store it), ``bootstrap``
(estimate the error quantile from stored or fresh sketches), ``plan``
(minimal sketch size for a target accuracy), ``oracle`` (Monte-Carlo ground
truth curve), and ``experiment`` (oracle curve plus repeated extrapolated
estimates, written as one CSV).

``@FILE`` reads flags from a UTF-8 options file in place, several to a line,
with ``#`` comments; a flag given later wins over one given earlier, and the
defaults are in ``_OPTIONS``. ``bootstrap --out`` writes the extrapolation
table, so it needs ``--t-grid``; ``bootstrap --pair`` takes the stored
sketch, so data and sketch flags are errors with it.
Logs go to standard error; results go to stdout or the ``--out`` file.
Exit codes: 0 success, 2 usage or spec error, 3 data error (including a
``--pair`` file that is not a stored sketch pair, and an ``--out`` path that
cannot be a file in a writable directory, found before any data are read), 4
numerical failure (including running out of memory).
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import zipfile
from contextlib import nullcontext
from dataclasses import dataclass, replace
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
from .matcore import DenseMatrix, NonFiniteResultError, ZeroMatrixError
from .oracle import QuantileCurve, mc_quantile_curve, pair_sampler
from .parallel import run_indexed, thread_policy
from .rng import derive_seed
from .sketch import LengthSamplingError, SketchKind, SketchPair, SketchSpec, apply_spec

__all__ = [
    "ExperimentResult",
    "run_experiment",
    "write_curve_csv",
    "default_t_grid",
    "save_pair",
    "load_pair",
    "main",
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


class _PairFileError(ValueError):
    """A --pair file that is not a sketch pair stored by save_pair."""


def _default_t0(d: int) -> int:
    return max(2, d // 2)  # the bootstrap needs at least 2 sketch rows


def default_t_grid(d: int) -> tuple[int, ...]:
    """Eight log-spaced sketch sizes from d/2 (at least 2) up to 10d."""
    lo = _default_t0(d)
    hi = max(lo + 1, 10 * d)
    grid = np.unique(np.rint(np.geomspace(lo, hi, 8)).astype(int))
    return tuple(int(t) for t in grid)


def _check_sizes(t: int, n: int, grid: tuple[int, ...] = ()) -> tuple[int, ...]:
    """Warn of sizes whose answers mean little; return the grid sorted, without repeats."""
    if t >= n:
        LOG.warning("t = %d is not below the %d source rows: sketching saves nothing", t, n)
    if min(grid, default=t) < t:
        LOG.warning("t_grid contains sizes below t0=%d; extrapolation there runs backwards", t)
    return tuple(sorted(set(grid)))


@dataclass
class ExperimentResult:
    """Oracle curve plus per-t extrapolated-estimate statistics and coverage."""

    t0: int
    curve: QuantileCurve
    est_mean: tuple[float, ...]
    est_lo: tuple[float, ...]
    est_hi: tuple[float, ...]
    coverage: tuple[float, ...]

    @property
    def rows(self) -> list[tuple]:
        """One (t, oracle_q, oracle_lo, oracle_hi, est_mean, est_lo, est_hi) row per t."""
        c = self.curve
        return list(zip(
            c.ts, c.values, c.band_low, c.band_high, self.est_mean, self.est_lo, self.est_hi
        ))


def run_experiment(
    matrix: DenseMatrix, kind: SketchKind, *, t0: int | None = None,
    t_grid: tuple[int, ...] | None = None, alpha: float = 0.01, boot_samples: int = 20,
    scheme: BootstrapScheme = BootstrapScheme.MULTIPLIER, oracle_reps: int = 400,
    estimator_reps: int = 200, seed: int = 0,
) -> ExperimentResult:
    """Oracle curve and repeated extrapolated estimates for sketches of ``matrix``.

    Draws ``oracle_reps`` sketch realizations, each serving every grid t, for
    the ground-truth quantile, then ``estimator_reps`` independent
    t0-sketches, bootstrapping each and extrapolating across the grid. Both
    read the R that ``matrix`` keeps from one QR: Gaussian oracle
    realizations are Wishart increments on it, and Gaussian estimator reps
    are ``gaussian_sketch`` on it through ``pair_sampler``, since the
    bootstrap needs real sketch rows, whose law R keeps. The two sets of
    draws come from disjoint streams, so ``coverage`` at t is the share of
    all (estimator rep, oracle realization) pairs whose error at t the rep's
    extrapolated bound covers, with no further draws; calibrated, it is
    about 1 - alpha. ``t0`` must be at least 2 and defaults to d/2 (at least
    2), ``t_grid`` to eight log-spaced points from there to 10d. Writes no
    file: ``rows`` are the CSV's rows. Runs under ``thread_policy``.
    """
    if not isinstance(matrix, DenseMatrix):
        raise ValueError("matrix must be a DenseMatrix")
    if estimator_reps < 1:
        raise ValueError("estimator_reps must be at least 1")
    d = matrix.cols
    t0 = t0 if t0 is not None else _default_t0(d)
    if t0 < 2:
        raise ValueError(f"t0 must be at least 2 for the bootstrap, got {t0}")
    # Built before the oracle, so bad parameters fail before any work; each rep re-seeds boot.
    sketch = SketchSpec(kind, t0, seed)
    boot = BootstrapConfig(scheme, boot_samples, alpha, seed)
    grid = _check_sizes(t0, matrix.rows, t_grid if t_grid is not None else default_t_grid(d))
    LOG.info(
        "experiment: %dx%d matrix, kind=%s, t0=%d, grid=%s",
        matrix.rows, d, sketch.kind.value, t0, list(grid),
    )
    with thread_policy():
        curve = mc_quantile_curve(
            matrix, matrix, sketch.kind, grid, oracle_reps, alpha, derive_seed(seed, _TAG_ORACLE)
        )
        LOG.info("oracle curve done (%d reps per t)", oracle_reps)
        draw = pair_sampler(matrix, matrix, sketch.kind)

        def one_estimate(r: int) -> QuantileEstimate:
            pair = draw(t0, derive_seed(seed, _TAG_EST_SKETCH, r))
            return bootstrap_quantile(pair, replace(boot, seed=derive_seed(seed, _TAG_EST_BOOT, r)))

        estimates = run_indexed(one_estimate, estimator_reps)
    LOG.info("estimator reps done (%d)", estimator_reps)

    extrapolated = [np.array([extrapolate(e, t) for e in estimates]) for t in curve.ts]
    return ExperimentResult(
        t0=t0, curve=curve,
        est_mean=tuple(float(ext.mean()) for ext in extrapolated),
        est_lo=tuple(empirical_quantile(ext, 0.1) for ext in extrapolated),
        est_hi=tuple(empirical_quantile(ext, 0.9) for ext in extrapolated),
        coverage=tuple(float(np.searchsorted(np.sort(e), x, side="right").mean()) / curve.reps
                       for e, x in zip(curve.errors.T, extrapolated)),
    )


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
    """Store a sketch pair with its provenance as an .npz archive at exactly ``path``."""
    with open(path, "wb") as fh:  # np.savez given a name would append .npz to it
        np.savez(
            fh,
            a_sketch=pair.a_sketch.array,
            b_sketch=pair.b_sketch.array,
            kind=pair.spec.kind.value,
            t=np.uint64(pair.spec.t),
            seed=np.uint64(pair.spec.seed),
            source_rows=np.uint64(pair.source_rows),
        )


def load_pair(path) -> SketchPair:
    """Load a sketch pair stored by save_pair.

    Bit-equal stored sketches load as one matrix shared by both sides, as
    a fresh pair of one matrix has it, so the bootstrap scores it alike. A
    file that is not such an archive, or whose contents do not form a valid
    pair, raises a ValueError that names ``path``.
    """
    try:
        z = np.load(path)
        if not isinstance(z, np.lib.npyio.NpzFile):  # an array, which has no context manager
            raise TypeError("it is a .npy array, not an .npz archive")
        with z:
            spec = SketchSpec(str(z["kind"]), int(z["t"]), int(z["seed"]))
            a, b = DenseMatrix(z["a_sketch"]), DenseMatrix(z["b_sketch"])
            if a.array.shape == b.array.shape and a.array.tobytes() == b.array.tobytes():
                b = a
            return SketchPair(a, b, spec, int(z["source_rows"]))
    except (KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise _PairFileError(f"{path}: not a stored sketch pair: {exc}") from None


# ---------------------------------------------------------------------------
# options

def _finite(name: str):
    """argparse type for a finite float; its messages name the option."""
    def convert(s: str) -> float:
        try:
            value = float(s)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"{name} must be a finite number, got {s!r}")
        return value
    return convert


def _to_grid(s: str) -> tuple[int, ...]:
    try:
        grid = tuple(int(p) for p in s.split(",") if p.strip())
    except ValueError:
        grid = ()
    if not grid or min(grid) < 1:
        raise argparse.ArgumentTypeError(
            f"t-grid must be a comma-separated list of integers of at least 1, got {s!r}"
        )
    return grid


def _to_synth(s: str) -> tuple[int, int, RankMode]:
    try:
        n, d, mode = (p.strip() for p in s.split(","))
        n, d = int(n), int(d)
    except ValueError:
        raise argparse.ArgumentTypeError(f"synth takes n,d,low|high, got {s!r}") from None
    try:
        return n, d, RankMode(mode)
    except ValueError:
        raise argparse.ArgumentTypeError(f"synth mode must be low or high, got {mode!r}") from None


_DATA = "sketch bootstrap oracle experiment"

# One row per option: the subcommands that take it, its flag, type, default
# and help. Defaults that run_experiment has come from its signature.
_DEFAULTS = run_experiment.__kwdefaults__
_OPTIONS = (
    ("bootstrap", "--pair", None, None, "stored sketch pair (.npz) from the sketch command"),
    ("plan", "--qhat", _finite("qhat"), None, "estimated quantile at t0"),
    ("plan", "--epsilon", _finite("epsilon"), None, "target error bound"),
    ("plan", "--n", int, None, "source row count, enables the budget ratio"),
    ("plan", "--d", int, None, "column count, enables the budget ratio"),
    ("oracle", "--reps", int, _DEFAULTS["oracle_reps"], "sketch realizations per grid point"),
    ("experiment", "--reps", int, _DEFAULTS["estimator_reps"],
     "independent estimator repetitions, desk-scale substitute"),
    ("experiment", "--oracle-reps", int, _DEFAULTS["oracle_reps"],
     "oracle realizations per grid point, desk-scale substitute"),
    (_DATA, "--data", None, None, "path to a LIBSVM text file"),
    (_DATA, "--synth", _to_synth, None, "synthetic matrix as n,d,low|high"),
    (_DATA, "--no-normalize", None, None, "skip scaling loaded data to unit Gram max-abs entry"),
    (_DATA, "--kind", SketchKind, None, "sketch operator: " + "|".join(SketchKind)),
    ("sketch bootstrap plan experiment", "--t0", int, None,
     "initial sketch size (default: d/2, at least 2)"),
    ("bootstrap oracle experiment", "--t-grid", _to_grid, None,
     "comma list of sketch sizes (default: 8 log-spaced from d/2 to 10d)"),
    ("bootstrap oracle experiment", "--alpha", _finite("alpha"), _DEFAULTS["alpha"],
     "quantile tail level"),
    ("bootstrap plan experiment", "--boot-samples", int, _DEFAULTS["boot_samples"],
     "bootstrap replicates B"),
    ("bootstrap experiment", "--scheme", BootstrapScheme, _DEFAULTS["scheme"].value,
     "bootstrap scheme: " + "|".join(BootstrapScheme)),
    (_DATA, "--seed", int, _DEFAULTS["seed"], "base seed, 64-bit unsigned"),
    (_DATA, "--out", None, None, "output file path"),
)


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"missing required option --{name}")


def _resolve_cli_matrix(args: argparse.Namespace) -> DenseMatrix:
    if (args.data is None) == (args.synth is None):
        raise ValueError("exactly one of --data and --synth is required")
    if args.synth is not None and not args.normalize:
        raise ValueError("--no-normalize needs --data: --synth matrices are built normalized")
    if args.data is not None:
        matrix = libsvm_load(args.data)
        return normalize_gram_linf(matrix) if args.normalize else matrix
    n, d, mode = args.synth
    return synth_matrix(SynthProfile(n, d, mode, derive_seed(args.seed, _TAG_DATA)))


# ---------------------------------------------------------------------------
# subcommands

def _sketch_pair(args: argparse.Namespace) -> SketchPair:
    """Sketch the --data or --synth matrix against itself as the options say."""
    _require(args, "kind")
    matrix = _resolve_cli_matrix(args)
    t0 = args.t0 if args.t0 is not None else _default_t0(matrix.cols)
    return apply_spec(matrix, matrix, SketchSpec(args.kind, t0, args.seed))


def cmd_sketch(args: argparse.Namespace) -> int:
    _require(args, "out")
    pair = _sketch_pair(args)
    _check_sizes(pair.t, pair.source_rows)
    save_pair(args.out, pair)
    print(
        f"wrote {args.out}: kind={pair.spec.kind.value} t={pair.t} "
        f"from {pair.source_rows}x{pair.a_sketch.cols}"
    )
    return EXIT_OK


def cmd_bootstrap(args: argparse.Namespace) -> int:
    if args.out is not None and args.t_grid is None:
        raise ValueError("--out needs --t-grid: bootstrap writes only the extrapolation table")
    if args.pair is not None:
        given = [f"--{name}" for name in ("data", "synth", "kind", "t0")
                 if getattr(args, name) is not None]
        if not args.normalize:
            given.append("--no-normalize")
        if given:
            raise ValueError(f"--pair takes the stored sketch; drop {', '.join(given)}")
    pair = load_pair(args.pair) if args.pair is not None else _sketch_pair(args)
    grid = _check_sizes(pair.t, pair.source_rows, args.t_grid or ())
    cfg = BootstrapConfig(args.scheme, args.boot_samples, args.alpha, args.seed)
    est = bootstrap_quantile(pair, cfg)
    print(f"q_hat({est.t0}) = {est.value:.9g}")
    if grid:
        rows = [(t, extrapolate(est, t)) for t in grid]
        for t, value in rows:
            print(f"q_ext({t}) = {value:.9g}")
        if args.out is not None:
            write_curve_csv(args.out, rows, "t,q_ext")
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    _require(args, "t0", "qhat", "epsilon")
    if args.qhat < 0:
        raise ValueError(f"--qhat must be nonnegative, got {args.qhat!r}")
    if (args.n is None) != (args.d is None):
        raise ValueError("--n and --d go together: give both for the budget ratio, or neither")
    # One sample is its own quantile at any level, so the estimate's value is --qhat.
    est = QuantileEstimate(args.t0, _DEFAULTS["alpha"], (args.qhat,))
    t = plan_sketch_size(est, args.epsilon)
    out = f"t = {t}"  # printed only once the ratio, if asked for, is known
    if args.n is not None:
        sizes = (("--boot-samples", args.boot_samples), ("--n", args.n), ("--d", args.d))
        for flag, value in sizes:
            if value < 1:
                raise ValueError(f"{flag} must be at least 1, got {value}")
        ratio = budget_check(args.boot_samples, t, args.t0, args.n, args.d)
        _check_sizes(t, args.n)
        out += f"\nbudget_ratio = {ratio:.9g}"
    print(out)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    _require(args, "kind")
    matrix = _resolve_cli_matrix(args)
    curve = mc_quantile_curve(
        matrix, matrix, args.kind, args.t_grid or default_t_grid(matrix.cols),
        args.reps, args.alpha, derive_seed(args.seed, _TAG_ORACLE),
    )
    rows = zip(curve.ts, curve.values, curve.band_low, curve.band_high)
    write_curve_csv(args.out, rows, "t,oracle_q,oracle_lo,oracle_hi")
    if args.out is not None:
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    _require(args, "out", "kind")
    result = run_experiment(
        _resolve_cli_matrix(args), args.kind, t0=args.t0, t_grid=args.t_grid, alpha=args.alpha,
        boot_samples=args.boot_samples, scheme=args.scheme, oracle_reps=args.oracle_reps,
        estimator_reps=args.reps, seed=args.seed,
    )
    write_curve_csv(args.out, result.rows)
    LOG.info("wrote %s", args.out)
    print(f"wrote {args.out}: {len(result.rows)} grid points, t0={result.t0}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point

_COMMANDS = {
    "sketch": (cmd_sketch, "sketch a matrix pair and store it"),
    "bootstrap": (cmd_bootstrap, "bootstrap the error quantile of a sketch pair"),
    "plan": (cmd_plan, "minimal sketch size for a target accuracy"),
    "oracle": (cmd_oracle, "Monte-Carlo ground-truth quantile curve"),
    "experiment": (cmd_experiment, "oracle curve plus repeated extrapolated estimates, as CSV"),
}


class _Parser(argparse.ArgumentParser):
    """Prints the usage line, then raises ValueError, which main logs (exit 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)

    def expand_options_files(self, args: list[str], within: frozenset = frozenset()) -> list[str]:
        """Replace each ``@FILE`` argument by the flags written in FILE.

        FILE is read as UTF-8; its flags are whitespace-separated, ``#``
        starts a comment, and it may name further ``@FILE`` arguments. A file
        that cannot be opened or decoded, or that includes itself (``within``
        holds the files being expanded), is a usage error that names it.

        Not argparse's ``fromfile_prefix_chars``: on Python 3.11 its reader opens FILE in
        the locale encoding, so valid UTF-8 fails under ASCII and misreads under Latin-1.
        """
        out = []
        for arg in args:
            if not arg.startswith("@"):
                out.append(arg)
                continue
            path = os.path.realpath(arg[1:])
            if path in within:
                self.error(f"options file {arg[1:]} includes itself")
            try:
                with open(arg[1:], encoding="utf-8") as f:
                    lines = f.read().splitlines()
            except (OSError, UnicodeDecodeError) as exc:
                self.error(f"options file {arg[1:]}: {exc}")
            out += self.expand_options_files(
                [flag for line in lines for flag in line.partition("#")[0].split()], within | {path}
            )
        return out


def build_parser() -> _Parser:
    """The sketchguard parser; main expands ``@FILE`` arguments before parsing."""
    parser = _Parser(
        prog="sketchguard",
        description=(
            "Sketched matrix products with bootstrap estimates of the "
            "error-versus-sketch-size tradeoff. @FILE reads flags from FILE, "
            "whitespace-separated, # starts a comment; a later flag wins."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary) in _COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        for commands, flag, convert, default, help_text in _OPTIONS:
            if name not in commands.split():
                continue
            if flag == "--no-normalize":
                sp.add_argument(flag, dest="normalize", action="store_false", help=help_text)
            else:
                shown = "" if default is None else " (default %(default)s)"
                sp.add_argument(flag, type=convert, default=default, help=help_text + shown)
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        parser = build_parser()
        args = parser.parse_args(
            parser.expand_options_files(sys.argv[1:] if argv is None else list(argv))
        )
        # Checked before any data are read, opening nothing, so a run that fails later
        # leaves an existing file as it was.
        out = getattr(args, "out", None)
        if out == "":
            raise ValueError("--out must name a file, got ''")
        if out and (Path(out).is_dir() or not Path(out).parent.is_dir()
                    or not os.access(Path(out).parent, os.W_OK)):
            raise OSError(f"cannot write {out}: not a file in an existing, writable directory")
        with thread_policy() if args.command in ("experiment", "oracle") else nullcontext():
            return args.func(args)
    except SystemExit as exc:  # --help
        return exc.code
    except (LibsvmParseError, _PairFileError, OSError, UnicodeDecodeError) as exc:
        LOG.error("data error: %s", exc)
        return EXIT_DATA
    except (ZeroMatrixError, LengthSamplingError, NonFiniteResultError, MemoryError) as exc:
        LOG.error("numerical failure: %s", str(exc) or type(exc).__name__)
        return EXIT_NUMERIC
    except ValueError as exc:
        LOG.error("%s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
