"""Correction of op times for the speed the machine ran at.

The benchmark shares its cores with other tenants.  On the machine that
defined it, the same op took anywhere from 1.7 s to 3.6 s depending on what
ran beside it, and that state lasts from seconds to minutes, so no number of
repetitions inside one run averages it out.

``SpeedProbe`` therefore samples the machine's speed in the untimed gaps
between ops: right before and right after each op (at most every
``MIN_INTERVAL``), ``sample()`` times ``BURST`` calls of a fixed kernel of
the same kind of work as the ops:

* ``python``: 2x2 numpy products, power-of-two renormalisation,
  closed-form SVD arithmetic and float formatting, like the orbit, bound
  and report code;
* ``stream``: the multiply-add and argmax/argmin passes of the oracle grid
  sweep over a 2**20-point grid, for the memory-bound ``oracle-1e6``; its
  working set (about 40 MB) is that of the op's 10**6-point sweep, so that
  it meets the same contention for the shared L3 cache.

No sample runs inside an op, so none shares the interpreter, allocator and
cache state of a running op.  The kernels are part of the benchmark, so no
change to the package moves them.  An op's corrected time is its wall time
divided by the mean slow-down of the kernel samples taken around it:

    corrected = wall * ref / mean kernel time

so it reads in seconds at the speed where one kernel call takes ``ref``
(about the fastest state of the machine that defined the benchmark).
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List, Tuple

import numpy as np

# Kernel calls per sample burst.
BURST = 5
# Each kernel call follows a read of this many bytes, twice the L2 cache of
# the machine that defined the benchmark, so that every call starts from
# caches the benchmark filled, as a call inside an op would, and not from
# whatever the op before it left behind.
EVICT_BYTES = 4 << 20
# Least time between bursts: ops shorter than this share bursts, which keeps
# the probe's cost for short ops (brackets) to a few per cent of the run.
MIN_INTERVAL = 0.1
# Bursts this far outside an op still describe its speed (short ops are
# corrected by their neighbours' bursts too).
WINDOW = 0.5

_STEP = np.array([[-1.96, 1.0], [0.3, 0.0]])
_GRID = []
_EVICT = np.ones(EVICT_BYTES // 8)


def python_kernel() -> float:
    """Fixed interpreter-bound work; returns a value so nothing is skipped."""
    acc = np.eye(2)
    total = 0.0
    for _ in range(24):
        body = _STEP @ acc
        _, e = math.frexp(float(np.abs(body).max()))
        acc = np.ldexp(body, -e)
        a, b, c, d = float(acc[0, 0]), float(acc[0, 1]), float(acc[1, 0]), float(acc[1, 1])
        q = math.hypot(0.5 * (a + d), 0.5 * (c - b))
        r = math.hypot(0.5 * (a - d), 0.5 * (c + b))
        t = math.atan2(c + b, a - d) + math.atan2(c - b, a + d)
        total += len(f"{q:.17g},{r:.17g},{t:.17g}")
    return total


def stream_kernel() -> float:
    """The oracle sweep's numpy passes over a fixed 2**20-point grid."""
    if not _GRID:
        theta = np.arange(1 << 20) * (math.pi / (1 << 20))
        s, c = np.sin(theta), np.cos(theta)
        _GRID.extend((s * s, 2.0 * s * c, c * c))
    s2, sc2, c2 = _GRID
    f = 0.7 * s2
    f += 0.3 * sc2
    f += 1.1 * c2
    return float(np.argmax(f) + np.argmin(f))


# kernel and its time at the reference speed (2-vCPU x86_64 VM, Python
# 3.11, numpy 2.4, at its fastest)
KERNELS = {"python": (python_kernel, 2.0e-4), "stream": (stream_kernel, 6.0e-3)}


class SpeedProbe:
    """Kernel samples taken between ops, and op times corrected by them."""

    def __init__(self, kind: str = "python") -> None:
        self.kernel, self.ref = KERNELS[kind]
        self.samples: List[Tuple[float, float]] = []  # (start, seconds)
        self.kernel()  # builds the stream kernel's grid before any sample

    def sample(self) -> None:
        """Take a burst unless the last one is less than ``MIN_INTERVAL`` old.

        Call it only between ops.
        """
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= MIN_INTERVAL:
            self.burst()

    def burst(self) -> None:
        """Time ``BURST`` kernel calls, each after a cache flush."""
        clock, kernel, samples = time.perf_counter, self.kernel, self.samples
        for _ in range(BURST):
            _EVICT.sum()
            t0 = clock()
            kernel()
            samples.append((t0, clock() - t0))

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel time around [start, end] over the reference time.

        Samples above three times the median (a collection or page fault
        inside the kernel) are dropped.
        """
        near = [d for t, d in self.samples if start - WINDOW <= t <= end + WINDOW]
        if not near:
            return 1.0
        cap = 3.0 * statistics.median(near)
        return statistics.mean(d for d in near if d <= cap) / self.ref

    def corrected(self, start: float, end: float) -> float:
        """Wall time of [start, end] at the reference speed."""
        return (end - start) / self.slowdown(start, end)


def slowdown_now(kind: str = "python", calls: int = 200) -> float:
    """Slow-down measured by ``calls`` kernel samples in a row (for set-up times)."""
    probe = SpeedProbe(kind)
    for _ in range(calls // BURST):
        probe.burst()
    return probe.slowdown(probe.samples[0][0], probe.samples[-1][0])
