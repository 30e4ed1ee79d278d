"""A fixed piece of CPU work that measures how fast the machine runs right now.

On a shared machine the same job can take twice as long from one minute to
the next.  The benchmark times `kernel` between consecutive jobs and scales
each job's time by REFERENCE_S over the mean of the two kernel times around
it, so reported times read as if the kernel took exactly REFERENCE_S.  Jobs
and kernel are both plain interpreted Python, so they slow down together.

Changing `kernel` or REFERENCE_S changes every reported time: keep both as
they are, or re-measure the baseline.
"""

from __future__ import annotations

import gc
import time

REFERENCE_S = 0.001


def kernel() -> list:
    counts: dict = {}
    for i in range(1500):
        key = (str(i % 97), i % 13)
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts)


def seconds() -> float:
    """Wall time of one kernel run, with the cyclic garbage collector off so
    that a collection of the benchmark's own heap is not charged to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
