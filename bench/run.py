"""sketchguard benchmark: one workload as a closed loop, metrics as JSON.

    python3 bench/run.py --workload gauss-oracle --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. A single client sends the next operation only after the
previous one returned. With ``--trace 0`` the run reports the end-to-end
metrics named in BENCHMARK.json, with ``--trace 1`` the per-layer metrics
from a traced run. Timing is plain ``time.perf_counter``; end-to-end times
are calibrated against a fixed reference kernel (see REF_S). The last stdout
line is the result object; the line before it carries host metadata and
details (tail percentile, sample count, uncalibrated times, determinism and
premise checks).

Thread variables (SKETCHGUARD_THREADS, OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS) are recorded as found and never pinned; the traced run sets
SKETCHGUARD_THREADS=1 for one determinism check and then restores it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("SKETCHGUARD_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_REPEATS = 7
WARMUP_S = 0.5
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10
MAX_REPORTED_FAILURES = 5
# End-to-end timings are calibrated to a reference speed. A shared host
# switches between fast and slow spells (up to about 1.7x apart) that hit every
# process, so a fixed reference kernel is timed after every op and around every
# set-up probe. An op's time is scaled by REF_S over the speed read for it,
# raised to the workload's speed_exponent (NOTES.md gives the measurements
# behind it); a set-up probe by REF_S over the readings around it. REF_S is the
# kernel's median time on the 2-vCPU host the NOTES figures come from, so
# calibrated seconds read as seconds at that speed.
REF_S = 1.95e-3
# The host's speed, as the kernel reads it, held for about this long.
SPEED_HOLD_S = 1.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import workloads (numpy and sketchguard with them) from this checkout."""
    sys.path.insert(0, str(SRC))
    import workloads

    found = Path(workloads.sg.__file__).resolve()
    if SRC.resolve() not in found.parents:
        raise ImportError(f"sketchguard imported from {found}, not from {SRC}")
    return workloads


def probe_main(args) -> int:
    """Child process: time importing the package and building the inputs."""
    start = time.perf_counter()
    workloads = import_package()
    workloads.WORKLOADS[args.workload](args.seed, Path(args.setup_probe))
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def setup_probe_s(args, probe_dir: Path) -> float:
    """Set-up time measured in a fresh interpreter, so the imports are cold."""
    probe_dir.mkdir()
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "1", "--setup-probe", str(probe_dir)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class Loop:
    """Closed-loop client: runs ops back to back, checks each, counts failures."""

    def __init__(self, workload):
        self.w = workload
        self.next_op = 0
        self.attempted = 0
        self.failed = 0

    def run_one(self, i: int | None = None):
        """Run and check one op; return (seconds, (bytes, gap)) or (seconds, None)."""
        if i is None:
            i, self.next_op = self.next_op, self.next_op + 1
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = self.w.op(i)
            elapsed = time.perf_counter() - start
            return elapsed, self.w.check(result)
        except Exception as exc:  # every failure counts against fail_ratio and is reported
            elapsed = time.perf_counter() - start
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return elapsed, None

    def run_for(self, seconds: float, between=None):
        """Run ops and their checks for `seconds`, and at least one op.

        ``between(run_s)`` is called after each op and its check; its own time
        is not counted. Returns (op seconds, op-and-check seconds, passed) per op.
        """
        ops, run_s = [], 0.0
        while run_s < seconds:
            start = time.perf_counter()
            elapsed, out = self.run_one()
            iteration = time.perf_counter() - start
            run_s += iteration
            ops.append((elapsed, iteration, out is not None))
            if between is not None:
                between(run_s)
        return ops


def reference_kernel() -> float:
    """Fixed work: sixty small numpy products on rows drawn from a Philox stream.

    It uses no package code, so no change to the package can move it, and its
    products stay below the size at which OpenBLAS starts threads.
    """
    import numpy as np

    g = np.random.Generator(np.random.Philox(1))
    a = g.standard_normal((32, 64))
    acc = 0.0
    for _ in range(60):
        idx = g.integers(0, 32, 32)
        acc += float(np.abs(a[idx].T @ a[idx]).max())
    return acc


def reference_s() -> float:
    """Time of one reference kernel call."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def tail(times: list[float]) -> tuple[float, float]:
    """Highest listed percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = -(-p * n // 100)  # nearest-rank, ceil(p n / 100)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    if n > TAIL_BEYOND:
        rank = n - TAIL_BEYOND
        return 100.0 * rank / n, ordered[rank - 1]
    # too few samples for any tail: the median, so the figure stays steady
    return 50.0, statistics.median(ordered)


def host_metadata(env_found: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": env_found,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(args, loop, tracer, tmp, units):
    if tracer.wrapped_bindings():
        raise RuntimeError(f"untraced run carries wrappers: {tracer.wrapped_bindings()}")
    loop.run_for(WARMUP_S)
    op_refs, probe_refs, setup_raw, setup = [reference_s()], [], [], []

    def probe():
        before = reference_s()
        setup_raw.append(setup_probe_s(args, tmp / f"probe{len(setup_raw)}"))
        probe_refs.extend((before, reference_s()))
        # a probe is short and interpreter-bound, like the kernel next to it
        setup.append(setup_raw[-1] * REF_S / ((before + probe_refs[-1]) / 2))

    def between(run_s):
        op_refs.append(reference_s())
        # spread the set-up probes over the run, so no single slow spell decides them
        if len(setup_raw) < SETUP_REPEATS and run_s >= len(setup_raw) * args.seconds / SETUP_REPEATS:
            probe()

    ops = loop.run_for(args.seconds, between=between)
    while len(setup_raw) < SETUP_REPEATS:
        probe()
    if tracer.wrapped_bindings():
        raise RuntimeError(f"untraced run carries wrappers: {tracer.wrapped_bindings()}")
    # A short op is scaled by the readings right before and after it, which saw
    # the speed it ran at. A long op averages the speed over its length, which
    # two readings do not represent, so it is scaled by the run's median reading.
    run_ref = statistics.median(op_refs + probe_refs)
    scale = [
        (REF_S / ((op_refs[i] + op_refs[i + 1]) / 2 if op_s < SPEED_HOLD_S else run_ref))
        ** loop.w.speed_exponent
        for i, (op_s, _, _) in enumerate(ops)
    ]
    times = [op_s * f for (op_s, _, _), f in zip(ops, scale)]
    raw = [op_s for op_s, _, _ in ops]
    passed = sum(ok for _, _, ok in ops)
    run_s = sum(it for _, it, _ in ops)
    pct, tail_s = tail(times)
    values = {
        "setup_s": statistics.median(setup),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_s,
        "ops_per_s": passed / sum(it * f for (_, it, _), f in zip(ops, scale)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "ops": len(raw),
        "op_s_tail_percentile": pct,
        "op_s_tail_samples": len(raw),
        "reference_s": {"nominal": REF_S, "median": run_ref,
                        "min": min(op_refs + probe_refs), "max": max(op_refs + probe_refs),
                        "readings": len(op_refs) + len(probe_refs),
                        "speed_exponent": loop.w.speed_exponent},
        "uncalibrated": {
            "setup_s": statistics.median(setup_raw),
            "op_s_p50": statistics.median(raw),
            "op_s_tail": tail(raw)[1],
            "ops_per_s": passed / run_s,
        },
    }
    return {k: metric(v, units[k]) for k, v in values.items()}, details


def run_traced(args, loop, tracer_mod, tracer, units):
    setup_spans = tracer.take()
    loop.run_for(WARMUP_S)
    plain, traced, rows, extras, calls = [], [], [], [], {}
    first = None  # (op index, output bytes) of the first traced op that passed
    run_s = 0.0
    # untraced and traced ops alternate, so a slow spell of the host hits both alike
    while run_s < args.seconds:
        start = time.perf_counter()
        plain.append(loop.run_one()[0])
        i = loop.next_op
        with tracer.installed():
            elapsed, out = loop.run_one()
        run_s += time.perf_counter() - start
        traced.append(elapsed)
        spans = tracer.take()
        m, x = tracer_mod.layer_metrics(spans, elapsed)
        m["cli.est_oracle_gap_max"] = out[1] if out is not None else 0.0
        if out is not None and first is None:
            first = (i, out[0])
        rows.append(m)
        extras.append(x)
        for key, ms in tracer_mod.per_call_ms(spans).items():
            calls.setdefault(key, []).extend(ms)
    leftover = tracer_mod.wrapped_bindings()

    determinism = {}
    if first is not None:
        i, expected = first
        _, out = loop.run_one(i)
        determinism["same_seed"] = out is not None and out[0] == expected
        saved = os.environ.get("SKETCHGUARD_THREADS")
        os.environ["SKETCHGUARD_THREADS"] = "1"
        try:
            _, out = loop.run_one(i)
        finally:
            if saved is None:
                del os.environ["SKETCHGUARD_THREADS"]
            else:
                os.environ["SKETCHGUARD_THREADS"] = saved
        determinism["threads_1"] = out is not None and out[0] == expected

    values = tracer_mod.median_by_key(rows)
    values["datagen.synth_matrix.setup_s"] = sum(
        s.dur for s in setup_spans if s.name == "datagen.synth_matrix"
    )
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    x = {k: statistics.median(e[k] for e in extras) for k in extras[0] if k != "sketch_costs_s"}
    costs = {k: statistics.median(e["sketch_costs_s"][k] for e in extras)
             for k in extras[0]["sketch_costs_s"]}
    premise = {
        "gaussian_share_of_oracle_busy": (
            x["gaussian_in_oracle_busy_s"] / x["oracle_thread_busy_s"]
            if x["oracle_thread_busy_s"] else None
        ),
        "largest_sketch_cost": max(costs, key=costs.get) if any(costs.values()) else None,
        "sketch_costs_s": costs,
        "bootstrap_share_of_op": values["booterr.bootstrap_quantile.busy_s"] / x["op_s"],
    }
    details = {
        "ops_untraced": len(plain),
        "ops_traced": len(traced),
        "wrappers_left_after_trace": leftover,
        "determinism": determinism,
        "premise": premise,
        "per_call_ms_median": {k: statistics.median(v) for k, v in sorted(calls.items())},
        "per_call_samples": {k: len(v) for k, v in sorted(calls.items())},
        "computed_from_array_sizes": sorted(k for k in values if k.endswith((".flops", ".bytes"))),
    }
    ok = not leftover and all(determinism.values()) and bool(determinism)
    return {k: metric(v, units[k]) for k, v in values.items()}, details, ok


def main(argv=None) -> int:
    args = parse_args(argv)
    env_found = {v: os.environ.get(v) for v in THREAD_VARS}
    if not (SRC / "sketchguard" / "__init__.py").is_file():
        print(f"error: no sketchguard package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return probe_main(args)

    workloads = import_package()
    import tracer

    workload_cls = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp-") as tmp_name:
        tmp = Path(tmp_name)
        workdir = tmp / "run"
        workdir.mkdir()
        if args.trace:
            # the in-process set-up is traced too, for datagen.synth_matrix.setup_s
            tr = tracer.Tracer()
            with tr.installed():
                loop = Loop(workload_cls(args.seed, workdir))
            metrics, details, correct = run_traced(args, loop, tracer, tr, units)
        else:
            loop = Loop(workload_cls(args.seed, workdir))
            metrics, details = run_untraced(args, loop, tracer, tmp, units)
            correct = True
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with "
              f"BENCHMARK.json", file=sys.stderr)
        return 1
    details.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        fail_ratio=loop.failed / loop.attempted, host=host_metadata(env_found),
    )
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": correct and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: metrics[k] for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
