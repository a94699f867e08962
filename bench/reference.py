"""A fixed pure-Python kernel that gauges how fast the host runs right now.

The shared 2-vCPU virtual machine this benchmark was built on changes
speed by up to a quarter over seconds to minutes, and by as much between
runs.  So the benchmark times this kernel in its own process just before
and just after every child it starts, and scales each time the child
measured by ``REFERENCE_S / kernel time``: times read as if the host ran
the kernel in exactly ``REFERENCE_S``.  The kernel does the kind of work
stepcheck does (tuples, strings and frozensets hashed into a dict that
outgrows the caches) but calls no stepcheck code, so no change to
stepcheck can move it.
"""
from __future__ import annotations

import gc
import statistics
import time

REFERENCE_S = 0.05  # about the kernel's time on the host the benchmark was built on
REPS = 3


def kernel(n: int = 40000) -> int:
    counts: dict = {}
    acc = 0
    for i in range(n):
        key = (i % 977, str(i % 311))
        counts[key] = counts.get(key, 0) + 1
        acc += hash(frozenset((i % 7, i % 11, i % 13))) & 3
    return acc + len(counts)


def measure(reps: int = REPS) -> list[float]:
    """Wall times of ``reps`` kernel runs, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        return times
    finally:
        if enabled:
            gc.enable()


def scale(kernel_times) -> float:
    """Factor that turns a wall time measured next to ``kernel_times`` into
    a time at the reference speed."""
    return REFERENCE_S / statistics.median(kernel_times)
