"""A fixed reference computation that tracks the host's current speed.

On a shared host the same work can take 1.1 s one minute and 2.0 s the
next, with CPU time equal to wall time throughout: the slowdown comes
from other tenants on the same cores, not from waiting.  The benchmark
times this probe right before and right after each timed operation and
scales the operation's wall time by ``REFERENCE_S / probe``: it reports
*reference seconds*, the time the operation would have taken on a host
where the probe takes ``REFERENCE_S``.  The probe is benchmark code, so
no change to the program moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe time the reported seconds are scaled to: about its median on a
#: quiet 2-vCPU x86-64 Linux container (Python 3.11, NumPy 2.4), so
#: reference seconds there read close to wall seconds.
REFERENCE_S = 0.012

_DATA = np.random.default_rng(2013).random(100_000)


def _reference_work() -> float:
    rows = [(i * 7919 % 10007, float(i)) for i in range(20_000)]
    rows.sort()
    table: dict[int, float] = {}
    for key, value in rows:
        table[key % 997] = table.get(key % 997, 0.0) + value
    return float(np.sort(_DATA)[-1]) + sum(table.values())


def reference_seconds(wall_s: float, probe_s: float) -> float:
    """``wall_s`` scaled to the reference host speed."""
    return wall_s * REFERENCE_S / probe_s


def probe_seconds(repeats: int = 5) -> float:
    """Median wall time of ``repeats`` runs of the reference work."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
