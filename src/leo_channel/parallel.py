"""Worker-count control for the benchmark's threaded spans.

No pass of the package runs on threads; perfbench/spans.py wraps
ordered_map. The number of worker threads is the number of CPUs the
process may run on, so a process pinned to one core (taskset -c 0) runs
one worker. Results are collected in submission order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def worker_count() -> int:
    """The size of the process's CPU affinity set, or os.cpu_count() where
    the platform has no sched_getaffinity."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_map(fn, items):
    """map() preserving order, threaded when more than one worker is allowed."""
    items = list(items)
    n = worker_count()
    if n == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(n, len(items))) as pool:
        return list(pool.map(fn, items))
