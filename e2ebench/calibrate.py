"""A fixed reference workload that measures how fast the host runs right now.

The benchmark runs on shared virtual machines whose speed drifts by a third
or more within minutes (other guests contend for the physical cores, caches
and memory bandwidth), so two runs of the same code can read far apart in
raw CPU seconds.  :func:`reference_cpu_s` times a frozen, pure-Python
kernel with the simulator's instruction mix — tuple-keyed dict updates, a
binary heap of ``(time, id)`` events, method calls on slotted objects,
float arithmetic and short-lived tuples — over a working set of about ten
megabytes that it builds fresh on every call.  It never changes with the
program, so the ratio of the ops' total CPU time to that of reference calls
interleaved with them cancels most of the host's drift and keeps the
program's own cost.  The kernel is not exactly as sensitive to every kind
of contention as every op, so single op/reference pairs scatter far more
than the totals over a whole run.

:data:`REFERENCE_S` converts the ratio back to seconds.
"""

from __future__ import annotations

import heapq
import time

#: a typical CPU time of one :func:`reference_work` call on a 2.0 GHz Xeon
#: vCPU (KVM guest, CPython 3.11); as that host's load changed it read
#: 0.13-0.24 s.  Times "at the reference speed" are CPU seconds scaled so
#: that this call would take exactly this long.
REFERENCE_S = 0.15

#: events per reference call.
STEPS = 32_000
#: slotted objects and dict entries the kernel builds and then visits in a
#: scattered order: a working set of ~10 MB, built fresh on every call, so
#: it allocates and misses the caches as the simulator's task graphs do
#: (a kernel that fits in cache over-reacts to the host's contention).
OBJECTS = 1 << 16
#: events kept pending in the heap.
HEAP_DEPTH = 4096


class _Entry:
    __slots__ = ("weight", "count")

    def __init__(self, weight: float) -> None:
        self.weight = weight
        self.count = 0

    def touch(self) -> float:
        self.count += 1
        return self.weight * 1e-6


def reference_work(steps: int = STEPS) -> float:
    """The frozen kernel; returns a checksum so nothing is optimized away."""
    entries = [_Entry(i * 0.25) for i in range(OBJECTS)]
    table = {(i & 1023, i >> 10): float(i) for i in range(OBJECTS)}
    heap: list[tuple[float, int]] = []
    now = 0.0
    for i in range(steps):
        k = (i * 2654435761) & (OBJECTS - 1)  # Knuth's multiplicative hash
        table[k & 1023, k >> 10] += now
        heapq.heappush(heap, (now + entries[k].touch(), k))
        if len(heap) > HEAP_DEPTH:
            now, j = heapq.heappop(heap)
            now += table[j & 1023, j >> 10] * 1e-12
    return now


def reference_cpu_s() -> float:
    """CPU seconds of one :func:`reference_work` call, measured now."""
    c0 = time.process_time()
    reference_work()
    return time.process_time() - c0
