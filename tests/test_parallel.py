"""Thread policy: the SKETCHGUARD_THREADS cap, the OpenBLAS gate and the pool."""

import logging
import os
import sys
import threading
import time

import numpy as np
import pytest

from sketchguard import cli, oracle, parallel
from sketchguard.cli import EXIT_NUMERIC, EXIT_USAGE, main
from sketchguard.matcore import DenseMatrix, NonFiniteResultError
from sketchguard.parallel import ENV_VAR, openblas_threads, run_indexed, thread_cap, thread_policy
from sketchguard.rng import derive_seed
from sketchguard.sketch import SketchKind


def usable_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.fixture
def blas_count():
    """Get the OpenBLAS thread count; the test's starting count is 2, restored afterwards."""
    blas = openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread-count functions")
    get, set_ = blas
    saved = get()
    set_(2)
    yield get
    set_(saved)


@pytest.mark.parametrize("raw,want", [("", 1), ("0", None), ("3", 3)])
def test_thread_cap_values(monkeypatch, raw, want):
    # an explicit count holds whether or not OpenBLAS's thread functions are found
    monkeypatch.setattr(parallel, "openblas_threads", lambda: None)
    monkeypatch.setenv(ENV_VAR, raw)
    with thread_policy():
        assert thread_cap() == (want if want is not None else usable_cores())


def test_unset_thread_cap_is_one_worker(monkeypatch):
    # outside a policy, and inside one that cannot hold OpenBLAS to one thread
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert thread_cap() == 1
    monkeypatch.setattr(parallel, "openblas_threads", lambda: None)
    with thread_policy():
        assert thread_cap() == 1


def test_outside_a_policy_the_variable_is_not_read_and_items_run_serially(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "2")
    assert thread_cap() == 1
    caller = threading.get_ident()
    assert run_indexed(lambda i: threading.get_ident(), 8) == [caller] * 8
    monkeypatch.setenv(ENV_VAR, "abc")
    assert thread_cap() == 1


def recording_sampler(monkeypatch):
    """Record (worker count, thread id) for every oracle draw of a row kind and Gaussian block."""
    real_sampler, real_increments = oracle.pair_sampler, oracle.gaussian_increments
    seen = []

    def recording(a, b, kind):
        draw = real_sampler(a, b, kind)

        def recorded(t, s):
            seen.append((thread_cap(), threading.get_ident()))
            return draw(t, s)

        return recorded

    def increments(*args):
        seen.append((thread_cap(), threading.get_ident()))
        return real_increments(*args)

    monkeypatch.setattr(oracle, "pair_sampler", recording)
    monkeypatch.setattr(oracle, "gaussian_increments", increments)
    return seen


@pytest.mark.parametrize("kind", ["gaussian", "uniform", "length", "srht"])
def test_unset_thread_cap_is_one_worker_per_core_with_openblas(monkeypatch, kind):
    # a library call enters the policy itself, with one rule for every kind
    monkeypatch.delenv(ENV_VAR, raising=False)
    seen = recording_sampler(monkeypatch)
    a = DenseMatrix(np.random.default_rng(0).standard_normal((33, 3)))
    oracle.mc_quantile_curve(a, a, kind, [4], 10, 0.1, 0)
    assert {cap for cap, _ in seen} == {usable_cores() if openblas_threads() else 1}
    assert thread_cap() == 1
    monkeypatch.setattr(parallel, "openblas_threads", lambda: None)
    seen.clear()
    oracle.mc_quantile_curve(a, a, kind, [4], 10, 0.1, 0)
    assert set(seen) == {(1, threading.get_ident())}  # no way to hold BLAS to one thread


def test_nested_policy_is_a_no_op(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "3")
    with thread_policy():
        monkeypatch.setenv(ENV_VAR, "1")
        with thread_policy():
            assert thread_cap() == 3
        assert thread_cap() == 3
    assert thread_cap() == 1


def test_gate_finds_the_openblas_numpy_names():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:
        pytest.skip("this numpy's show_config has no dicts mode")
    if "openblas" not in str(blas.get("name", "")).lower():
        pytest.skip(f"numpy's BLAS is {blas.get('name')!r}, not OpenBLAS")
    assert openblas_threads() is not None


@pytest.mark.parametrize("threads", ["", "1", "2"])
def test_blas_held_to_one_thread_from_data_build_and_restored(
    monkeypatch, tmp_path, blas_count, threads
):
    monkeypatch.setenv(ENV_VAR, threads)
    seen = []
    real = cli.synth_matrix

    def synth(profile):
        seen.append((blas_count(), thread_cap()))
        return real(profile)

    monkeypatch.setattr(cli, "synth_matrix", synth)
    argv = ["experiment", "--synth", "256,8,high", "--kind", "gaussian", "--t-grid", "8,16",
            "--oracle-reps", "10", "--reps", "4", "--out", str(tmp_path / "c.csv")]
    assert main(argv) == 0
    assert seen == [(1, int(threads or usable_cores()))]  # one BLAS thread at any worker count
    assert blas_count() == 2


def test_one_and_two_workers_build_the_same_bits_at_a_width_blas_threads_round(
    monkeypatch, blas_count
):
    # d = 100: OpenBLAS sums the synth Gram differently on one and on two threads
    real_synth, real_curve = cli.synth_matrix, cli.mc_quantile_curve
    seen = []

    def synth(profile):
        matrix = real_synth(profile)
        seen.append(matrix.array.tobytes())
        return matrix

    def curve(*args):
        out = real_curve(*args)
        seen.append(out.errors.tobytes())
        return out

    monkeypatch.setattr(cli, "synth_matrix", synth)
    monkeypatch.setattr(cli, "mc_quantile_curve", curve)
    argv = ["oracle", "--synth", "4096,100,high", "--kind", "srht", "--t-grid", "128,256",
            "--reps", "10", "--seed", "1"]
    for threads in ("1", "2", ""):
        monkeypatch.setenv(ENV_VAR, threads)
        assert main(argv) == 0
    assert len(seen) == 6
    assert len(set(seen[0::2])) == 1  # the synth matrix
    assert len(set(seen[1::2])) == 1  # the oracle errors


@pytest.mark.parametrize("threads", ["1", "2"])
def test_pool_raises_the_lowest_index_failure(monkeypatch, threads):
    monkeypatch.setenv(ENV_VAR, threads)
    started = []

    def fn(i):
        started.append((i, threading.get_ident()))
        if i == 3:
            time.sleep(0.05)  # pooled, item 7 fails first in time
        if i in (3, 7):
            raise ValueError(f"item {i}")
        return i * i

    with thread_policy():
        assert thread_cap() == int(threads)
        with pytest.raises(ValueError, match="^item 3$"):
            run_indexed(fn, 20)
        if threads == "1":  # all on the calling thread, and nothing after the failure
            assert started == [(i, threading.get_ident()) for i in range(4)]
        assert run_indexed(lambda i: i * i, 20) == [i * i for i in range(20)]


def test_pool_runs_each_item_once_under_fast_thread_switching(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "8")  # more workers than cores
    ran = []

    def fn(i):
        ran.append(i)
        return i * i

    out = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with thread_policy():
            caller = threading.Thread(target=lambda: out.append(run_indexed(fn, 2000)))
            caller.start()
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert out == [[i * i for i in range(2000)]]
    assert sorted(ran) == list(range(2000))


def test_pool_failure_has_the_serial_exit_code_and_message(monkeypatch, caplog):
    seed = derive_seed(1, 1)  # the oracle command's stream tag
    failing_reps = {derive_seed(seed, r): r for r in (3, oracle.BLOCK + 3)}  # in two blocks
    real = oracle.gaussian_increments

    def failing(r_a, r_b, steps, seeds):
        failed = [failing_reps[s] for s in seeds if s in failing_reps]
        if failed == [3]:
            time.sleep(0.05)  # the second block fails first in time
        if failed:
            raise NonFiniteResultError(f"draw {failed[0]}")
        return real(r_a, r_b, steps, seeds)

    monkeypatch.setattr(oracle, "gaussian_increments", failing)
    argv = ["oracle", "--synth", "128,4,high", "--kind", "gaussian", "--t-grid", "4,8",
            "--reps", str(2 * oracle.BLOCK), "--seed", "1"]
    logged = []
    for threads in ("1", "2", ""):
        monkeypatch.setenv(ENV_VAR, threads)
        caplog.clear()
        with caplog.at_level(logging.ERROR):
            code = main(argv)
        logged.append((code, [r.getMessage() for r in caplog.records]))
    assert logged[0] == (EXIT_NUMERIC, ["numerical failure: draw 3"])
    assert logged[1] == logged[2] == logged[0]


@pytest.mark.parametrize(
    "kind,blas_found", [("srht", False), ("gaussian", True), ("srht", True), ("gaussian", False)]
)
def test_default_workers_by_kind(monkeypatch, kind, blas_found):
    # the kind does not matter: unset means one worker per core when BLAS can be held
    monkeypatch.delenv(ENV_VAR, raising=False)
    if not blas_found:
        monkeypatch.setattr(parallel, "openblas_threads", lambda: None)
    seen = recording_sampler(monkeypatch)
    argv = ["oracle", "--synth", "257,4,high", "--kind", kind, "--t-grid", "4,8", "--reps", "40"]
    assert main(argv) == 0
    want = usable_cores() if parallel.openblas_threads() else 1
    assert {cap for cap, _ in seen} == {want}
    if want == 1:
        assert {thread for _, thread in seen} == {threading.get_ident()}


@pytest.mark.parametrize("kind", list(SketchKind), ids=[k.value for k in SketchKind])
def test_oracle_errors_do_not_depend_on_the_worker_count_over_random_shapes(monkeypatch, kind):
    rng = np.random.default_rng(16)
    shapes = []
    for i in range(8):
        n, d = int(rng.integers(17, 301)), int(rng.integers(2, 7))
        grid = (int(rng.integers(1, n)), n, int(rng.integers(n + 1, 2 * n + 1)))
        shapes.append((n, grid))
        a = DenseMatrix(rng.standard_normal((n, d)))
        b = a if i % 2 else DenseMatrix(rng.standard_normal((n, int(rng.integers(2, 7)))))
        errors = []
        for threads in ("1", "2"):
            monkeypatch.setenv(ENV_VAR, threads)
            errors.append(oracle.mc_quantile_curve(a, b, kind, grid, 10, 0.1, i).errors)
        assert errors[0].tobytes() == errors[1].tobytes(), (n, d, grid)
    assert any(n & (n - 1) for n, _ in shapes)  # a non-power-of-two height is among them


@pytest.mark.parametrize("raw,message", [
    ("abc", "SKETCHGUARD_THREADS must be an integer, got 'abc'"),
    ("-2", "SKETCHGUARD_THREADS must be nonnegative, got -2"),
])
def test_invalid_thread_cap_names_the_variable(monkeypatch, caplog, raw, message):
    monkeypatch.setenv(ENV_VAR, raw)
    with pytest.raises(ValueError) as info:
        with thread_policy():
            pass
    assert str(info.value) == message
    argv = ["oracle", "--synth", "64,4,high", "--kind", "srht", "--t-grid", "4", "--reps", "10"]
    assert main(argv) == EXIT_USAGE
    assert message in caplog.text
    # a command that pools nothing does not read the variable
    assert main(["plan", "--t0", "5", "--qhat", "0.2", "--epsilon", "0.05"]) == 0


@pytest.fixture
def fresh_openblas_lookup():
    """Clear the cached OpenBLAS lookup before and after the test."""
    openblas_threads.cache_clear()
    yield
    openblas_threads.cache_clear()


def test_openblas_lookup_is_none_when_the_library_cannot_load(monkeypatch, fresh_openblas_lookup):
    def fail(path):
        raise OSError(f"cannot load {path}")

    monkeypatch.setattr(parallel.ctypes, "CDLL", fail)
    assert openblas_threads() is None


def test_openblas_lookup_is_none_without_thread_symbols(monkeypatch, fresh_openblas_lookup):
    monkeypatch.setattr(parallel.ctypes, "CDLL", lambda path: object())
    assert openblas_threads() is None
    monkeypatch.delenv(ENV_VAR, raising=False)
    with thread_policy():
        assert thread_cap() == 1

