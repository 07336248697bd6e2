"""Host-speed probe: normalizes CPU times for a shared, drifting host.

On a host shared with other tenants the same single-threaded work can
cost 1.5x more CPU time from one minute to the next: contention for
the physical core, its caches and memory is charged to whoever runs.
The probe runs a fixed reference kernel every ``interval`` seconds and
records the CPU time each run of it took.  The kernel has an
interpreter-bound part (heap, dict and integer work, like the
simulator's event loop) and a memory-bound part (dependent random
reads over a table far larger than the caches, like the large pools),
because the workloads slow down under both kinds of contention.

A ``SIGALRM`` wall-clock timer drives the samples, so every phase is
sampled uniformly without the program's cooperation.  A CPU-time timer
(``ITIMER_PROF``) would be the natural choice, but while one is armed
Linux reads the process CPU clock from tick-granular accounting, which
would blur every measurement.

A phase's *normalized* CPU time is its raw CPU time minus the probe's
own time inside it, divided by the mean kernel time measured inside
the phase over ``NOMINAL_KERNEL_S``: CPU seconds on a host that runs
the kernel in exactly ``NOMINAL_KERNEL_S``.  The mean, not the median,
because a phase's cost integrates the host's speed over the phase.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time
from array import array

#: CPU seconds of one kernel run inside a benchmark process on the
#: reference host (2-vCPU Intel Xeon at 2.0 GHz, CPython 3.11)
NOMINAL_KERNEL_S = 0.00067

#: entries (log2) of the table for the memory-bound part: 32 MB,
#: far larger than the caches
TABLE_BITS = 22


def kernel(table: array) -> int:
    """A fixed slice of work on plain ints, allocating almost nothing
    the cyclic collector tracks (a collection inside the kernel would
    read as a slow host)."""
    heap: list = []
    counts: dict = {}
    total = 0
    for i in range(400):
        heapq.heappush(heap, ((i * 7919) % 1009) << 10 | i)
        key = i & 63
        counts[key] = counts.get(key, 0) + 1
    while heap:
        item = heapq.heappop(heap)
        total += (item >> 10) ^ (item & 1023)
    mask = len(table) - 1
    idx = 1
    for _ in range(300):
        idx = (idx * 1103515245 + 12345 + total) & mask
        total += table[idx] & 7
    return total + len(counts)


class HostProbe:
    """Samples the kernel's CPU time every ``interval`` seconds.

    ``on_sample(seconds)`` is told the wall time of each kernel run
    (the tracer excludes it from the span it interrupted).
    """

    def __init__(self, interval: float = 0.02, on_sample=None):
        self.interval = interval
        self.on_sample = on_sample
        #: process CPU time at each sample, and the kernel's CPU time
        self.at = array("d")
        self.took = array("d")
        self.table = array("q")

    def start(self) -> "HostProbe":
        self.table = array("q", range(1 << TABLE_BITS))
        signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.table = array("q")

    def _sample(self, signum, frame) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        kernel(self.table)
        c1 = time.process_time()
        self.at.append(c0)
        self.took.append(c1 - c0)
        if self.on_sample is not None:
            self.on_sample(time.perf_counter() - w0)

    def _window(self, cpu0: float, cpu1: float) -> range:
        return range(bisect.bisect_left(self.at, cpu0),
                     bisect.bisect_left(self.at, cpu1))

    def factor(self, cpu0: float, cpu1: float) -> float:
        """Mean kernel time between two process CPU times, relative to
        the reference host (1.0 when no sample fell inside)."""
        inside = [self.took[i] for i in self._window(cpu0, cpu1)]
        if not inside:
            return 1.0
        return statistics.fmean(inside) / NOMINAL_KERNEL_S

    def local_factor(self, cpu0: float, cpu1: float,
                     samples: int = 25) -> float:
        """Like :meth:`factor`, but over at least ``samples`` kernel
        runs centred on the phase: a short phase (one execution) is
        normalized by the host speed around it, not by a handful of
        samples or by the mean of a whole pass."""
        inside = self._window(cpu0, cpu1)
        n = len(self.took)
        if len(inside) >= samples or n <= len(inside):
            return self.factor(cpu0, cpu1)
        hi = min(n, max(0, (inside.start + inside.stop - samples) // 2)
                 + samples)
        lo = max(0, hi - samples)
        return statistics.fmean(self.took[lo:hi]) / NOMINAL_KERNEL_S

    def own(self, cpu0: float, cpu1: float) -> float:
        """CPU seconds the probe itself spent between two CPU times."""
        return sum(self.took[i] for i in self._window(cpu0, cpu1))

    def normalized(self, cpu0: float, cpu1: float,
                   factor: float) -> float:
        """CPU seconds of the work between two CPU times (probe time
        removed), scaled to the reference host by ``factor``."""
        return (cpu1 - cpu0 - self.own(cpu0, cpu1)) / factor
