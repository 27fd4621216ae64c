"""Span tracer for sketchguard, installed from outside the package.

Python resolves a called function through the globals of the calling module,
so ``from .sketch import apply_spec`` gives ``oracle`` a binding of its own.
Tracing what a caller really calls therefore means replacing the function in
every module namespace that holds it: ``Tracer.installed`` finds those
namespaces by identity, swaps in one wrapper per function, and puts every
original back on exit. The package itself is never edited.

Each span records its name, start, end, thread and parent. Work items of
``parallel.run_indexed`` get a ``parallel.item`` span whose parent is the
``run_indexed`` span on the calling thread, so a subtree can cross threads.
"""

from __future__ import annotations

import itertools
import math
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "sketchguard"
MARK = "__bench_traced__"


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    thread: int
    parent: int | None
    info: dict | None

    @property
    def dur(self) -> float:
        return self.end - self.start


# Kernel counts below are computed from array sizes, not measured: they
# ignore caches, temporaries and BLAS blocking.

def _cols(a, b) -> int:
    return a.cols if b is a else a.cols + b.cols


def _gaussian_info(a, b, t, seed):
    n, k = a.rows, _cols(a, b)
    return {"t": t, "n": n, "k": k, "flops": 2 * t * n * k, "bytes": 8 * (t * n + n * k + t * k)}


def _srht_info(a, b, t, seed):
    n = a.rows
    n_pad = 1 << (n - 1).bit_length()
    return {"t": t, "n": n, "n_pad": n_pad, "pad_ratio": n_pad / n}


def _fwht_info(values):
    n_pad = values.shape[0]
    k = math.prod(values.shape[1:])
    passes = int(math.log2(n_pad))
    # one add and one subtract per pair per pass; each pass reads and writes the array
    return {"n_pad": n_pad, "k": k, "flops": n_pad * k * passes, "bytes": 16 * n_pad * k * passes}


def _row_sample_info(a, b, probs, t, seed, kind=None):
    return {"t": t}


def _bootstrap_info(pair, cfg):
    t, da, db = pair.t, pair.a_sketch.cols, pair.b_sketch.cols
    return {
        "scheme": cfg.scheme.value, "replicates": cfg.replicates, "t": t, "d": da,
        "replicate_flops": 2 * t * da * db,
        "replicate_bytes": 8 * (t * da + t * db + da * db + t),
    }


def _oracle_info(a, b, kind, t_grid, reps, *args, **kwargs):
    return {"realizations": reps * len(set(int(t) for t in t_grid))}


# (module, function, span name, info from the call's arguments)
TARGETS = (
    ("rng", "substream", "rng.substream", None),
    ("rng", "derive_seed", "rng.derive_seed", None),
    ("sketch", "apply_spec", "sketch.apply_spec", None),
    ("sketch", "gaussian_sketch", "sketch.gaussian", _gaussian_info),
    ("sketch", "srht_sketch", "sketch.srht", _srht_info),
    ("sketch", "fwht_in_place", "sketch.fwht", _fwht_info),
    ("sketch", "row_sample_sketch", "sketch.row_sample", _row_sample_info),
    ("sketch", "length_sampling_probs", "sketch.length_probs", None),
    ("booterr", "bootstrap_quantile", "booterr.bootstrap_quantile", _bootstrap_info),
    ("oracle", "mc_quantile_curve", "oracle.mc_quantile_curve", _oracle_info),
    ("parallel", "run_indexed", "parallel.run_indexed", None),
    ("matcore", "matmul_t", "matcore.matmul_t", None),
    ("datagen", "libsvm_load", "datagen.libsvm_load", None),
    ("datagen", "normalize_gram_linf", "datagen.normalize_gram_linf", None),
    ("datagen", "synth_matrix", "datagen.synth_matrix", None),
    ("cli", "main", "cli.main", None),
    ("cli", "run_experiment", "cli.run_experiment", None),
    ("cli", "write_curve_csv", "cli.write_curve_csv", None),
)


def _package_namespaces():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")):
            yield vars(module)


def wrapped_bindings() -> list[str]:
    """Names of package bindings that currently hold a tracing wrapper."""
    return sorted(
        f"{ns['__name__']}.{attr}"
        for ns in _package_namespaces()
        for attr, value in list(ns.items())
        if getattr(value, MARK, False)
    )


class Tracer:
    """Collects spans from wrapped package functions, on any thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, info: dict | None = None, parent: int | None = None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)  # a single C call, atomic under the interpreter lock
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, threading.get_ident(), parent, info))

    def take(self) -> list[Span]:
        """Return and clear the recorded spans; call only while no work runs."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, fn, name, info_fn):
        tracer = self

        def traced(*args, **kwargs):
            info = info_fn(*args, **kwargs) if info_fn is not None else None
            with tracer.span(name, info):
                return fn(*args, **kwargs)

        return traced

    def _wrap_run_indexed(self, fn, thread_cap):
        tracer = self

        def traced(item_fn, count):
            info = {"items": count, "workers": max(1, min(thread_cap(), count))}
            with tracer.span("parallel.run_indexed", info) as sid:
                def item(i):
                    with tracer.span("parallel.item", parent=sid):
                        return item_fn(i)

                return fn(item, count)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every package binding of each target; restore them all on exit."""
        wrappers = {}
        for module, func, name, info_fn in TARGETS:
            mod = sys.modules[f"{PACKAGE}.{module}"]
            fn = getattr(mod, func)
            if name == "parallel.run_indexed":
                wrapper = self._wrap_run_indexed(fn, mod.thread_cap)
            else:
                wrapper = self._wrap(fn, name, info_fn)
            setattr(wrapper, MARK, True)
            wrappers[id(fn)] = (fn, wrapper)
        saved = []
        try:
            for ns in _package_namespaces():
                for attr, value in list(ns.items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        saved.append((ns, attr, value))
                        ns[attr] = hit[1]
            yield self
        finally:
            for ns, attr, value in reversed(saved):
                ns[attr] = value


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its child spans cover on the same thread."""
    thread_of = {s.sid: s.thread for s in spans}
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None and thread_of.get(s.parent) == s.thread:
            covered[s.parent] += s.dur
    return {s.sid: s.dur - covered[s.sid] for s in spans}


def subtree(spans: list[Span], root_name: str) -> list[Span]:
    """Spans named root_name and all their descendants, across threads."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out, todo = [], [s for s in spans if s.name == root_name]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(children[s.sid])
    return out


def thread_busy(spans: list[Span], selfs: dict[int, float]) -> float:
    """Summed busy time over threads: self times, less run_indexed's wait for its pool."""
    return sum(selfs[s.sid] for s in spans if s.name != "parallel.run_indexed")


def layer_metrics(spans: list[Span], op_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of one operation, and the extras its premise checks use."""
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    selfs = self_times(spans)

    def calls(name):
        return len(by[name])

    def busy(name):
        return sum(s.dur for s in by[name])

    def total(name, key):
        return sum(s.info[key] for s in by[name])

    def first(name, key):
        return by[name][0].info[key] if by[name] else 0

    oracle_tree = subtree(spans, "oracle.mc_quantile_curve")
    oracle_busy = thread_busy(oracle_tree, selfs)
    realizations = total("oracle.mc_quantile_curve", "realizations")
    pool_capacity = sum(s.dur * s.info["workers"] for s in by["parallel.run_indexed"])
    item_s = busy("parallel.item")
    cli_spans = [s for s in spans if s.name.startswith("cli.")]
    m = {
        "rng.substream.calls": calls("rng.substream"),
        "rng.substream.busy_s": busy("rng.substream"),
        "rng.derive_seed.calls": calls("rng.derive_seed"),
        "sketch.gaussian.calls": calls("sketch.gaussian"),
        "sketch.gaussian.busy_s": busy("sketch.gaussian"),
        "sketch.gaussian.flops": total("sketch.gaussian", "flops"),
        "sketch.gaussian.bytes": total("sketch.gaussian", "bytes"),
        "sketch.srht.calls": calls("sketch.srht"),
        "sketch.srht.busy_s": busy("sketch.srht"),
        "sketch.srht.pad_ratio": first("sketch.srht", "pad_ratio"),
        "sketch.fwht.busy_s": busy("sketch.fwht"),
        "sketch.fwht.flops": total("sketch.fwht", "flops"),
        "sketch.fwht.bytes": total("sketch.fwht", "bytes"),
        "sketch.row_sample.busy_s": busy("sketch.row_sample"),
        "sketch.length_probs.busy_s": busy("sketch.length_probs"),
        "booterr.bootstrap_quantile.calls": calls("booterr.bootstrap_quantile"),
        "booterr.bootstrap_quantile.busy_s": busy("booterr.bootstrap_quantile"),
        "booterr.bootstrap_quantile.self_s": sum(
            selfs[s.sid] for s in by["booterr.bootstrap_quantile"]
        ),
        "booterr.replicates": total("booterr.bootstrap_quantile", "replicates"),
        "booterr.replicate.flops": first("booterr.bootstrap_quantile", "replicate_flops"),
        "booterr.replicate.bytes": first("booterr.bootstrap_quantile", "replicate_bytes"),
        "oracle.mc_quantile_curve.busy_s": busy("oracle.mc_quantile_curve"),
        "oracle.realizations": realizations,
        "oracle.realization_ms": 1e3 * oracle_busy / realizations if realizations else 0.0,
        "parallel.items": total("parallel.run_indexed", "items"),
        "parallel.wall_s": busy("parallel.run_indexed"),
        "parallel.item_s": item_s,
        "parallel.utilization": item_s / pool_capacity if pool_capacity else 0.0,
        "matcore.matmul_t.calls": calls("matcore.matmul_t"),
        "matcore.matmul_t.busy_s": busy("matcore.matmul_t"),
        "datagen.libsvm_load.busy_s": busy("datagen.libsvm_load"),
        "datagen.normalize_gram_linf.busy_s": busy("datagen.normalize_gram_linf"),
        "datagen.synth_matrix.busy_s": busy("datagen.synth_matrix"),
        "cli.run_experiment.busy_s": busy("cli.run_experiment"),
        "cli.write_curve_csv.busy_s": busy("cli.write_curve_csv"),
        "cli.self_s": sum(selfs[s.sid] for s in cli_spans),
    }
    sketch_under_oracle = [s for s in oracle_tree if s.name == "sketch.gaussian"]
    srht_self = sum(selfs[s.sid] for s in by["sketch.srht"])
    extras = {
        "op_s": op_s,
        "oracle_thread_busy_s": oracle_busy,
        "gaussian_in_oracle_busy_s": sum(s.dur for s in sketch_under_oracle),
        "sketch_costs_s": {
            "sketch.fwht": m["sketch.fwht.busy_s"],
            "sketch.srht.self": srht_self,
            "rng.substream in sketch.srht": sum(
                s.dur for s in subtree(spans, "sketch.srht") if s.name == "rng.substream"
            ),
            "sketch.gaussian": m["sketch.gaussian.busy_s"],
            "sketch.row_sample": m["sketch.row_sample.busy_s"],
            "sketch.length_probs": m["sketch.length_probs.busy_s"],
        },
    }
    return m, extras


def per_call_ms(spans: list[Span]) -> dict[str, list[float]]:
    """Durations of sketch and bootstrap calls in ms, keyed by kind and size."""
    out = defaultdict(list)
    for s in spans:
        i = s.info
        if s.name == "sketch.gaussian":
            key = f"gaussian t={i['t']} n={i['n']} k={i['k']}"
        elif s.name == "sketch.srht":
            key = f"srht t={i['t']} n={i['n']} n_pad={i['n_pad']}"
        elif s.name == "sketch.fwht":
            key = f"fwht n_pad={i['n_pad']} k={i['k']}"
        elif s.name == "sketch.row_sample":
            key = f"row_sample t={i['t']}"
        elif s.name == "booterr.bootstrap_quantile":
            key = f"bootstrap {i['scheme']} B={i['replicates']} t={i['t']} d={i['d']}"
        else:
            continue
        out[key].append(1e3 * s.dur)
    return out


def median_by_key(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}
