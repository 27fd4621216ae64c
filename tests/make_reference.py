"""Compute the pinned reference outputs, and rewrite ``reference.json`` from them.

    PYTHONPATH=src python tests/make_reference.py

``test_reference.py`` recomputes the same values and compares them with the
file at 1e-9 relative. A change to a stream key, a seed derivation or a
sampler moves them by far more; BLAS rounding across CPUs by far less. A
change that rewrites the file shows in its diff, and says why in CHANGES.md.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

from sketchguard.booterr import BootstrapConfig, BootstrapScheme, bootstrap_quantile
from sketchguard.cli import default_t_grid, load_pair, run_experiment, save_pair
from sketchguard.datagen import RankMode, SynthProfile, libsvm_load, synth_matrix
from sketchguard.oracle import mc_quantile_curve
from sketchguard.rng import derive_seed
from sketchguard.sketch import SketchKind, SketchSpec, apply_spec

PATH = Path(__file__).with_name("reference.json")

# As `sketchguard experiment --synth 1025,16,high --oracle-reps 40 --reps 20 --seed 5`.
SEED, SYNTH = 5, (1025, 16, RankMode.HIGH)
ORACLE_REPS, ESTIMATOR_REPS = 40, 20
SKETCH_ROWS = 3  # first rows kept of each stored sketch
BOOT_SAMPLES = 20

# CRLF line ends, a blank line and no trailing newline, as in CI's LIBSVM step.
LIBSVM_TEXT = (
    "1 1:0.5 3:-1.25\r\n\r\n-1 2:2 4:0.75\r\n+1 1:1e-3 2:-.5 3:4 4:1\r\n"
    "-1 1:3 3:2.5\r\n1 2:-1 4:2\r\n-1 1:1.5 2:0.25 4:-3"
)


def matrix():
    n, d, mode = SYNTH
    return synth_matrix(SynthProfile(n, d, mode, derive_seed(SEED, 0)))  # the CLI's data tag


def kind_values(kind: SketchKind) -> dict:
    """One kind's experiment rows and coverage, oracle rows, stored sketch and bootstrap samples."""
    m = matrix()
    result = run_experiment(
        m, kind, oracle_reps=ORACLE_REPS, estimator_reps=ESTIMATOR_REPS, seed=SEED
    )
    # As `sketchguard oracle ... --reps 40 --alpha 0.1 --seed 5`.
    curve = mc_quantile_curve(
        m, m, kind, default_t_grid(m.cols), ORACLE_REPS, 0.1, derive_seed(SEED, 1)
    )
    # As `sketchguard sketch ... --seed 5`, through the stored archive.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pair.npz"
        save_pair(path, apply_spec(m, m, SketchSpec(kind, m.cols // 2, SEED)))
        pair = load_pair(path)
    boot = {
        scheme.value: list(bootstrap_quantile(
            pair, BootstrapConfig(scheme, BOOT_SAMPLES, 0.1, SEED)
        ).samples)
        for scheme in BootstrapScheme
    }
    return {
        "experiment": [list(row) for row in result.rows],
        "coverage": list(result.coverage),
        "oracle": [list(row) for row in zip(curve.ts, curve.values, curve.band_low,
                                            curve.band_high)],
        "sketch": pair.a_sketch.array[:SKETCH_ROWS].tolist(),
        "bootstrap": boot,
    }


def libsvm_values() -> list:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.svm"
        path.write_bytes(LIBSVM_TEXT.encode())
        return libsvm_load(path).array.tolist()


def compute() -> dict:
    return {
        "kinds": {kind.value: kind_values(kind) for kind in SketchKind},
        "libsvm": libsvm_values(),
    }


def write(ref: dict, path: Path = PATH) -> None:
    """JSON floats are written with ``repr``, so they read back exactly; one row a line."""
    text = json.dumps(ref, indent=1)
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m[1].split()) + "]", text)
    path.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    write(compute())
    print(f"wrote {PATH}", file=sys.stderr)
