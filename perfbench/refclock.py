"""A reference clock that takes the host's changing speed out of the timings.

On a small shared virtual machine the speed of one vCPU changes in episodes
of a few seconds to minutes: on the 2-vCPU machine the benchmark was built
on, the kernel below took from 2.6 ms to 5.9 ms within one minute, and the
workloads' jobs moved with it.  Medians over a run do not remove episodes
that last longer than the run.

So the worker times this fixed kernel, which runs no fracsmooth code, before
and after every stretch of items (at least every ``EVERY_S`` seconds of
items), and scales each item's wall time by ``REF_S`` over the mean of the
two probes around it.  The result is the item's time in seconds at the
speed at which the kernel takes ``REF_S``.  The probes sit outside the timed
items.  A probe on a second CPU does not track the worker's own vCPU, so
the probe runs in the worker process, in line with the items.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

#: seconds one probe takes at the reference speed (a typical figure for the
#: machine above; it only sets the scale of the reported times)
REF_S = 0.0045
#: longest stretch of item time, in seconds, between two probes
EVERY_S = 0.25

_X = np.linspace(0.0, 1.0, 64)


def kernel() -> float:
    """Interpreter work mixed with small NumPy calls, like the workloads."""
    s = 0.0
    for i in range(400):
        s += float((np.cos(_X * i) * 0.5).sum())
        for j in range(20):
            s += (i * j) % 7 * 0.5
    return s


def probe(repeats: int = 3) -> float:
    """Median wall time of the kernel over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds between two probes."""
    return REF_S / (0.5 * (before + after))
