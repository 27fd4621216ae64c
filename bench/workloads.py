"""The benchmark's workloads: inputs from a seed, one operation, output checks.

Each workload builds its inputs in the constructor (the timed set-up), runs
one operation per ``op(i)`` call, and validates that operation's output in
``check``, which raises ``CheckFailed`` and otherwise returns the output as
bytes for the determinism comparison plus the estimate-to-oracle gap.

Why these three (see NOTES.md for the predictions):

* ``gauss-oracle`` is the acceptance fixture through the CLI at the rep
  counts of the recorded end-to-end baseline (100 oracle and 50 estimator
  reps), where almost all time goes to Gaussian sketches inside the
  Monte-Carlo oracle.
* ``srht-libsvm`` reads a LIBSVM file with 2^13 + 1 rows (the height of the
  mushrooms set the README uses), so the SRHT pads to almost twice the height
  and the Walsh-Hadamard transform dominates, with the CLI data path inside
  every operation and no Gaussian oracle. Its rep counts keep the 2:1 ratio
  of oracle to estimator reps of the documented runs at a fifth of the
  baseline's counts, since every SRHT costs the same at any t.
* ``boot-plan`` is the sketches-only library path: length sampling, a
  B = 200 bootstrap, extrapolation and planning, with no oracle at all.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

import sketchguard as sg
from sketchguard import cli

CSV_HEADER = b"t,oracle_q,oracle_lo,oracle_hi,est_mean,est_lo,est_hi\n"


class CheckFailed(Exception):
    """An operation's output broke one of the benchmark's checks."""


def op_seed(seed: int, *key: int) -> int:
    """64-bit seed for one operation, derived from the workload seed."""
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def log_grid(d: int) -> list[int]:
    """Eight log-spaced sketch sizes from d/2 to 10d, as the README documents."""
    return [int(t) for t in np.unique(np.rint(np.geomspace(d // 2, 10 * d, 8)).astype(int))]


class Experiment:
    """One op is ``sketchguard experiment`` through ``cli.main``, writing a CSV."""

    d = 64

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = workdir / "curve.csv"

    def data_args(self) -> list[str]:
        raise NotImplementedError

    def op(self, i: int) -> int:
        argv = ["experiment", *self.data_args(), *self.options,
                "--seed", str(op_seed(self.seed, i)), "--out", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, rc: int) -> tuple[bytes, float]:
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        data = self.out.read_bytes()
        if not data.startswith(CSV_HEADER):
            raise CheckFailed(f"CSV header differs: {data[:80]!r}")
        rows = [line.split(",") for line in data[len(CSV_HEADER):].decode().splitlines()]
        if [int(r[0]) for r in rows] != log_grid(self.d):
            raise CheckFailed(f"expected one row per grid size {log_grid(self.d)}")
        gap = 0.0
        for r in rows:
            if len(r) != 7:
                raise CheckFailed(f"row has {len(r)} fields: {r}")
            q, lo, hi, est_mean = (float(v) for v in r[1:5])
            if not all(math.isfinite(float(v)) for v in r[1:]):
                raise CheckFailed(f"non-finite value in row {r}")
            if not lo <= hi:
                raise CheckFailed(f"oracle_lo > oracle_hi in row {r}")
            if q > 0:
                gap = max(gap, abs(est_mean - q) / q)
        return data, gap


class GaussOracle(Experiment):
    name = "gauss-oracle"
    # how far run.py scales op times by the host's speed, as read by its
    # reference kernel (1 = in proportion); chosen from measurements in NOTES.md
    speed_exponent = 0.5
    options = ["--kind", "gaussian", "--alpha", "0.1", "--oracle-reps", "100", "--reps", "50"]

    def data_args(self) -> list[str]:
        return ["--synth", f"2048,{self.d},high"]


class SrhtLibsvm(Experiment):
    name = "srht-libsvm"
    speed_exponent = 0.5
    rows = 2**13 + 1
    nnz = 16
    options = ["--kind", "srht", "--scheme", "nonparametric", "--alpha", "0.1",
               "--oracle-reps", "20", "--reps", "10"]

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.data = workdir / "data.svm"
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        lines = []
        for r in range(self.rows):
            idx = np.sort(rng.choice(self.d, self.nnz, replace=False)) + 1
            if r == 0:
                idx[-1] = self.d  # pin the feature count to d
            vals = rng.standard_normal(self.nnz)
            label = 1 if rng.random() < 0.5 else -1
            lines.append(f"{label} " + " ".join(f"{j}:{v:.6g}" for j, v in zip(idx, vals)))
        self.data.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def data_args(self) -> list[str]:
        return ["--data", str(self.data)]


class BootPlan:
    """One op sketches, bootstraps, extrapolates and plans through the library."""

    name = "boot-plan"
    speed_exponent = 0.95
    n, d, t0 = 8192, 64, 32
    replicates, alpha, epsilon = 200, 0.01, 0.05

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.a = sg.synth_matrix(sg.SynthProfile(self.n, self.d, "low", op_seed(seed)))
        self.grid = log_grid(self.d)

    def op(self, i: int):
        pair = sg.apply_spec(
            self.a, self.a, sg.SketchSpec("length", self.t0, op_seed(self.seed, i, 0))
        )
        cfg = sg.BootstrapConfig(
            "nonparametric", self.replicates, self.alpha, op_seed(self.seed, i, 1)
        )
        est = sg.bootstrap_quantile(pair, cfg)
        curve = [sg.extrapolate(est, t) for t in self.grid]
        return est, curve, sg.plan_sketch_size(est, self.epsilon)

    def check(self, result) -> tuple[bytes, float]:
        est, curve, t_plan = result
        if len(est.samples) != self.replicates:
            raise CheckFailed(f"{len(est.samples)} samples, expected {self.replicates}")
        if est.value != sg.empirical_quantile(est.samples, 1.0 - self.alpha):
            raise CheckFailed("value is not the (1 - alpha) quantile of its samples")
        if not all(math.isfinite(v) and v > 0 for v in curve):
            raise CheckFailed(f"extrapolated curve is not finite and positive: {curve}")
        if sg.extrapolate(est, t_plan) > self.epsilon:
            raise CheckFailed(f"t_plan={t_plan} misses epsilon={self.epsilon}")
        if t_plan > 1 and sg.extrapolate(est, t_plan - 1) <= self.epsilon:
            raise CheckFailed(f"t_plan={t_plan} is not minimal")
        text = ",".join(repr(v) for v in (t_plan, est.value, *est.samples, *curve))
        return text.encode(), 0.0


WORKLOADS = {w.name: w for w in (GaussOracle, SrhtLibsvm, BootPlan)}
