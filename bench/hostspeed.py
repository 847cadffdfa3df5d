"""Host-speed probe: scales measured times to a reference interpreter speed.

On a shared host the speed at which the same Python code runs can swing
by a third within seconds and drift by as much between runs, while CPU
time tracks wall time (measured on a 2-vCPU "Intel(R) Xeon(R)
Processor" virtual machine).  Raw times of one run then say as much
about the neighbours as about the program.

`HostSpeed` runs a fixed probe - pure-Python dict, tuple, string, heap
walk and sort work that touches no program code - every PROBE_INTERVAL_S
on a timer signal while a timed loop runs, and directly around each
set-up.  A time measured over [start, end] is scaled by
REFERENCE_PROBE_NS over the median duration of the probes that ran
within WINDOW_NS of it, which reads as the time the same work would take
on a host where the probe takes REFERENCE_PROBE_NS.  The time spent in
probes is excluded from the program's times: `program_ns` is a clock
that stops while a probe runs.

A probe runs with the cyclic garbage collector off, so a collection over
the program's heap is never charged to the probe (which would hide a
change in the program's garbage).
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
import time

#: Period of the probe timer while a timed loop runs.
PROBE_INTERVAL_S = 0.05
#: Probes within this distance of a measured stretch set its scale.
WINDOW_NS = 100_000_000
#: Median probe duration on the reference host (CPython 3.11, one
#: "Intel(R) Xeon(R) Processor" core at 2.0 GHz); scaled times are times
#: at this probe speed.
REFERENCE_PROBE_NS = 3_000_000

#: Strings the probe reads at scattered places: about 12 MB, larger than
#: the caches, and invisible to the cyclic collector.
_HEAP = [f"{i:09d}" for i in range(200_000)]
_STRIDE = 67 * 7919


class _Item:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c) -> None:
        self.a, self.b, self.c = a, b, c


def _probe_work() -> int:
    """Three kinds of interpreter work the resolver does, none of its code.

    Hashing and dict updates on small tuples and strings; a scattered walk
    over a heap larger than the caches; building and sorting small
    instances by tuple keys.  Each alone tracked the resolver's speed on
    some workloads and not others; together they tracked it on all three.
    """
    table: dict = {}
    for i in range(1500):
        item = (i % 17, str(i % 13), (i, i + 1))
        key = item[0], item[1]
        table[key] = table.get(key, 0) + len(item[2])
    picked = []
    j = 0
    for _ in range(600):
        j = (j + _STRIDE) % len(_HEAP)
        text = _HEAP[j]
        picked.append((text[-2:], text))
    picked.sort()
    items = [_Item(i % 89, str(i % 61), (i % 7, i)) for i in range(750)]
    items.sort(key=lambda item: (item.a, item.b, item.c))
    return len(table) + len(picked) + len(items)


class HostSpeed:
    """Probe durations over one run, and the scale they give a stretch."""

    def __init__(self) -> None:
        self.starts: list[int] = []  # perf_counter_ns at each probe's start
        self.durations: list[int] = []
        self._probe_total = 0
        self._busy = False

    def probe(self, *_signal_args) -> None:
        """Run one probe; also the timer's signal handler."""
        if self._busy:  # a timer signal handled inside a probe
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter_ns()
            _probe_work()
            duration = time.perf_counter_ns() - start
        finally:
            if collecting:
                gc.enable()
            self._busy = False
        self.starts.append(start)
        self.durations.append(duration)
        self._probe_total += duration

    def program_ns(self) -> int:
        """perf_counter_ns less the time spent in probes."""
        return time.perf_counter_ns() - self._probe_total

    @contextlib.contextmanager
    def sampling(self):
        """Probe every PROBE_INTERVAL_S (and once at each end) inside the block."""
        previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            self.probe()
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.probe()

    def scale(self, start_ns: int, end_ns: int) -> float:
        """REFERENCE_PROBE_NS over the median probe near [start_ns, end_ns] (wall)."""
        lo = bisect.bisect_left(self.starts, start_ns - WINDOW_NS)
        hi = bisect.bisect_right(self.starts, end_ns + WINDOW_NS)
        if lo == hi:  # nothing near: the closest probe on either side
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        return REFERENCE_PROBE_NS / statistics.median(self.durations[lo:hi])
