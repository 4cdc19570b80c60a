"""The host's speed, sampled while the benchmark runs.

This host's cores and caches are shared with other tenants, so its speed
drifts by tens of percent within a minute, and a slow spell can last a
whole run. While a job runs, a timer interrupts it every INTERVAL_S and
times a fixed kernel. Each measured time is reported scaled by
REF_MS / (the kernel's median time in and around the measured span), that
is, at the speed the host has when the kernel takes REF_MS. A job is
scaled by the samples inside it; an op by those within NEAR_S of it, or by
its job's scale when fewer than MIN_SAMPLES fall there. The kernel's own
time is taken out of every span it falls in.

The kernel should slow down as the workload does. For interpreter-bound
workloads it is interpreter work and allocation; for a workload that spends
its time in array arithmetic over arrays larger than a core's L2 cache, it
adds a pass over such arrays.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REF_MS = {False: 1.5, True: 3.0}   # by whether the kernel has the array pass
INTERVAL_S = 0.05
NEAR_S = 0.5
MIN_SAMPLES = 5


class HostClock:
    def __init__(self, arrays: bool):
        self.ticks: list[tuple[float, float]] = []   # (start, seconds) per kernel run
        self._ref_ms = REF_MS[arrays]
        self._arrays = [np.ones(1 << 21, dtype=np.float32) for _ in range(2)] if arrays else None

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        total = 0
        for i in range(8000):
            total += i * i % 7
        table = {str(i): i for i in range(3000)}
        if self._arrays:
            a, b = self._arrays
            np.add(a, b, out=a)
            np.multiply(a, np.float32(0.5), out=a)
        self.ticks.append((t0, time.perf_counter() - t0))
        return total + len(table)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _inside(self, start: float, end: float) -> list[float]:
        found = []
        for t0, dt in reversed(self.ticks):
            if t0 < start:
                break
            if t0 < end:
                found.append(dt)
        return found

    def spent(self, start: float, end: float) -> float:
        """Seconds the kernel took between two perf_counter() readings."""
        return sum(self._inside(start, end))

    def near(self, start: float, end: float, fallback: float) -> float:
        """Scale for one op, from the samples within NEAR_S of it."""
        return self.factor(start - NEAR_S, end + NEAR_S, fallback)

    def factor(self, start: float = float("-inf"), end: float = float("inf"),
               fallback: float | None = None) -> float:
        """Scale for a time measured between two readings; by default over
        the whole run. Too few samples give ``fallback``, or the run's scale."""
        inside = self._inside(start, end)
        if len(inside) >= MIN_SAMPLES:
            return self._ref_ms / (statistics.median(inside) * 1000.0)
        if fallback is not None:
            return fallback
        every = [dt for _, dt in self.ticks]
        return self._ref_ms / (statistics.median(every) * 1000.0) if every else 1.0
