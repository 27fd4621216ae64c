"""Thread-pool helper honoring the SKETCHGUARD_THREADS cap.

Unset means one worker, 0 one worker per core. On a 2-core host with a
threaded BLAS, serial runs measured faster and smaller than pooled ones; with
a one-thread BLAS the pool was faster. Larger hosts were not measured.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

ENV_VAR = "SKETCHGUARD_THREADS"


def thread_cap() -> int:
    raw = os.environ.get(ENV_VAR, "").strip()
    if raw == "":
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{ENV_VAR} must be nonnegative, got {value}")
    return value or os.cpu_count() or 1


def run_indexed(fn, count: int) -> list:
    """Evaluate fn(i) for i in range(count), results ordered by index.

    Work items must be independent and seed-indexed, so the schedule cannot
    affect the output.
    """
    workers = min(thread_cap(), count)
    if workers <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))
