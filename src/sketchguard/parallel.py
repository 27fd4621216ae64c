"""Worker threads for independent, seed-indexed draws, and the BLAS threads beside them.

``thread_policy`` sets the worker count for one command or library run, and is the
only reader of ``SKETCHGUARD_THREADS``: ``N`` means N workers (``0`` one per usable
core); unset, one per usable core for every sketch kind if numpy's OpenBLAS exposes
its thread-count functions (looked up once with ``ctypes``), else one. OpenBLAS runs on
one thread for the whole run, data build included, at any worker count: its spinning
workers compete with the pool, and its thread count sets how it sums. Items draw from
streams keyed by their index, so output is byte-identical at any setting.
"""

from __future__ import annotations

import ctypes
import importlib
import itertools
import os
import threading
from contextlib import contextmanager
from functools import cache

ENV_VAR = "SKETCHGUARD_THREADS"

# (get, set) thread-count symbols: numpy >= 2 wheels, numpy 1.24 wheels, a system OpenBLAS.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# Module state, like the process-wide BLAS thread count the policy guards: the
# worker count while a thread_policy is entered, else None.
_workers: int | None = None


def _env_cap() -> int | None:
    raw = os.environ.get(ENV_VAR, "").strip()
    if raw == "":
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{ENV_VAR} must be nonnegative, got {value}")
    return value or _usable_cores()


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@cache
def openblas_threads():
    """``(get, set)`` for the thread count of numpy's OpenBLAS, or None if it has none.

    The lookup goes through numpy's LAPACK extension, whose handle reaches the
    BLAS library it links.
    """
    try:
        lib = ctypes.CDLL(importlib.import_module("numpy.linalg._umath_linalg").__file__)
    except (ImportError, AttributeError, OSError):
        return None
    for get_name, set_name in _OPENBLAS_SYMBOLS:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        return get, set_
    return None


@contextmanager
def thread_policy():
    """Choose the worker count for one run of seed-indexed draws.

    Holds OpenBLAS to one thread, restoring its count on every exit. A nested
    entry is a no-op; outside any, one worker runs.
    """
    global _workers
    if _workers is not None:
        yield
        return
    blas = openblas_threads()
    workers = _env_cap() or (_usable_cores() if blas else 1)
    if blas:
        saved = blas[0]()
        blas[1](1)
    _workers = workers
    try:
        yield
    finally:
        _workers = None
        if blas:
            blas[1](saved)


def thread_cap() -> int:
    """The worker count in effect: the policy's in ``thread_policy``, else 1."""
    return _workers or 1


def run_indexed(fn, count: int) -> list:
    """Evaluate fn(i) for i in range(count), results ordered by index.

    Work items must be independent and seed-indexed, so the schedule cannot
    affect the output. The calling thread works beside ``thread_cap() - 1``
    helpers, at most one per further item, taking items in index order. After
    an item fails no new item is started, and the lowest-index failure is
    raised, as a serial run would.
    """
    results = [None] * count
    failed = {}
    claim = itertools.count()
    stop = threading.Event()

    def work():
        # next() on a count is one C call, atomic under the interpreter lock
        while not stop.is_set() and (i := next(claim)) < count:
            try:
                results[i] = fn(i)
            except BaseException as exc:
                failed[i] = exc
                stop.set()

    helpers = [threading.Thread(target=work) for _ in range(min(thread_cap(), count) - 1)]
    for h in helpers:
        h.start()
    try:
        work()
    finally:
        stop.set()
        for h in helpers:
            h.join()
    if failed:
        raise failed[min(failed)]
    return results
