"""Worker-count control for embarrassingly parallel grid loops.

LEO_CHANNEL_THREADS caps the number of worker threads; unset, the count is
the number of CPUs the process may run on. Results are collected in
submission order, so parallel runs are deterministic.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def worker_count() -> int:
    raw = os.environ.get("LEO_CHANNEL_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        if hasattr(os, "sched_getaffinity"):
            n = len(os.sched_getaffinity(0))
        else:
            n = os.cpu_count() or 1
    return max(1, n)


def ordered_map(fn, items):
    """map() preserving order, threaded when more than one worker is allowed."""
    items = list(items)
    n = worker_count()
    if n == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(n, len(items))) as pool:
        return list(pool.map(fn, items))
