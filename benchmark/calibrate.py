"""Calibration kernel: converts raw timings to seconds at reference speed.

The machines this benchmark runs on are small shared VMs whose CPU speed
drifts by tens of percent over tens of seconds, in CPU time as much as in
wall time.  The harness therefore times a fixed kernel next to every
interval it measures and scales the interval by how fast the kernel ran
then, relative to a constant nominal kernel time:

    calibrated = raw * NOMINAL_KERNEL_S / kernel_time_now

The kernel resembles the program's own work (dict updates keyed by tuples
with ``Fraction`` values, then a tuple sort over 3 000 keys), so that the
things that slow the program down (cache pressure, allocator, frequency)
slow the kernel down in the same proportion.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

#: Median kernel time on the reference machine (2-core VM, CPython 3.11.7).
#: A constant: changing it rescales every timing the benchmark reports.
NOMINAL_KERNEL_S = 0.015

KERNEL_KEYS = 3000

def kernel() -> int:
    d: dict[tuple[int, int], Fraction] = {}
    for i in range(KERNEL_KEYS):
        key = (i * 7919) % KERNEL_KEYS
        t = (key % 97, key)
        d[t] = d.get(t, Fraction(0)) + Fraction(i % 7 - 3, 1 + i % 5)
    return len(sorted(d.items()))


def kernel_time() -> float:
    """Raw seconds for one kernel run.

    The cyclic garbage collector is off while it runs: a collection
    triggered by the kernel's allocations would scan the program's heap,
    and a program that keeps fewer objects alive would then look slower.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def kernel_median(runs: int = 3) -> float:
    """Median raw kernel time over a few runs, after one unmeasured run."""
    kernel_time()
    return statistics.median(kernel_time() for _ in range(runs))


def chunk_factors(samples: list[float]) -> list[float]:
    """Speed factor for each chunk of ops from the kernel samples around it.

    ``samples[j]`` was taken just before chunk j and ``samples[j + 1]``
    just after it.  The machine's speed moves within a second, so the
    factor is NOMINAL over the mean of those two samples only: on rounds
    of identical work, wider windows of samples tracked it worse.
    """
    if len(samples) < 2:
        raise ValueError("at least one chunk needs two kernel samples")
    return [2 * NOMINAL_KERNEL_S / (a + b) for a, b in zip(samples, samples[1:])]
