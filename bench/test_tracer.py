"""Tests of the benchmark's tracer; run with ``python3 -m pytest bench``."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import sketchguard as sg  # noqa: E402
import tracer  # noqa: E402
from sketchguard import cli, oracle, sketch  # noqa: E402


def _package_bindings():
    return {
        (ns["__name__"], attr): value
        for ns in tracer._package_namespaces()
        for attr, value in ns.items()
        if callable(value)
    }


def test_install_wraps_caller_bindings_and_restores_every_original():
    before = _package_bindings()
    t = tracer.Tracer()
    with t.installed():
        wrapped = set(tracer.wrapped_bindings())
        assert {
            "sketchguard.oracle.apply_spec",
            "sketchguard.sketch.gaussian_sketch",
            "sketchguard.sketch.fwht_in_place",
            "sketchguard.sketch.substream",
            "sketchguard.booterr.substream",
            "sketchguard.datagen.substream",
            "sketchguard.oracle.run_indexed",
            "sketchguard.cli.run_indexed",
            "sketchguard.bootstrap_quantile",
        } <= wrapped
    assert tracer.wrapped_bindings() == []
    assert _package_bindings() == before
    assert oracle.apply_spec is sketch.apply_spec


def test_untraced_run_carries_no_wrappers():
    assert tracer.wrapped_bindings() == []
    a = sg.DenseMatrix(np.random.default_rng(0).standard_normal((64, 4)))
    sg.mc_quantile_curve(a, a, "gaussian", (4, 8), 10, 0.1, 1)
    assert tracer.wrapped_bindings() == []


def test_spans_nest_across_pool_threads_and_self_time_excludes_children(monkeypatch):
    monkeypatch.setenv("SKETCHGUARD_THREADS", "2")
    a = sg.DenseMatrix(np.random.default_rng(0).standard_normal((64, 4)))
    t = tracer.Tracer()
    with t.installed():
        sg.mc_quantile_curve(a, a, "gaussian", (4, 8), 10, 0.1, 1)
    spans = t.take()
    by_id = {s.sid: s for s in spans}
    items = [s for s in spans if s.name == "parallel.item"]
    assert len(items) == 20
    assert all(by_id[s.parent].name == "parallel.run_indexed" for s in items)
    gauss = [s for s in spans if s.name == "sketch.gaussian"]
    assert len(gauss) == 20
    assert all(by_id[s.parent].name == "sketch.apply_spec" for s in gauss)
    assert all(by_id[by_id[s.parent].parent].name == "parallel.item" for s in gauss)
    selfs = tracer.self_times(spans)
    for g in gauss:
        rows = [s for s in spans if s.parent == g.sid]
        assert len(rows) == g.info["t"]
        assert abs(selfs[g.sid] - (g.dur - sum(s.dur for s in rows))) < 1e-12
    m, _ = tracer.layer_metrics(spans, 1.0)
    assert m["oracle.realizations"] == 20
    assert m["sketch.gaussian.flops"] == sum(2 * t * 64 * 4 for t in (4, 8)) * 10


def test_cli_main_is_traced_through_its_module_binding(tmp_path):
    t = tracer.Tracer()
    out = tmp_path / "o.csv"
    with t.installed():
        rc = cli.main(["oracle", "--synth", "64,4,high", "--kind", "srht",
                       "--t-grid", "4,8", "--reps", "10", "--out", str(out)])
    assert rc == 0
    names = {s.name for s in t.take()}
    assert {"cli.main", "oracle.mc_quantile_curve", "sketch.srht", "sketch.fwht",
            "datagen.synth_matrix", "rng.derive_seed"} <= names
