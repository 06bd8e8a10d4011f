"""StarPU's DMDAS scheduler (deque model data aware, sorted).

The paper runs Chameleon with "the DMDAS StarPU scheduling algorithm that
seems to be well suited for linear algebra" (§IV-A), after warm-up runs that
let StarPU "build a performance model of each task".

StarPU's dmda family assigns a task *when it becomes ready*, to the worker
minimizing the expected completion time

``ect(task, w) = max(avail[w], now) + transfer_estimate(task, w) + kernel_estimate(task)``

where the transfer estimate charges non-resident input bytes at the bandwidth
of the cheapest available path, and the kernel estimate comes from the
calibrated performance model (our GPU efficiency curve plays that role — the
simulated equivalent of StarPU's history-based model after warm-up runs).
The ``s`` suffix (sorted) orders each worker's queue by task priority.

This data-aware global placement is what lets Chameleon balance SYRK/SYR2K
better than XKaapi's work stealing at large sizes (§IV-D/E) — each update task
lands where its C tile already lives, and queue-length feedback evens the
load.
"""

from __future__ import annotations

import heapq
import itertools

from repro.runtime.scheduler.base import Scheduler, SchedulerContext
from repro.runtime.task import Task


class DmdaScheduler(Scheduler):
    name = "starpu-dmdas"
    #: the sorted queues read ``Task.priority``, which only
    #: ``TaskGraph.critical_path_priorities()`` (whole-DAG, retained mode)
    #: assigns — streaming submission materializes eagerly for this policy.
    needs_priorities = True

    def __init__(self, num_devices: int) -> None:
        super().__init__(num_devices)
        self._seq = itertools.count()
        #: per-worker priority queues: (-priority, seq, task)
        self._queues: list[list[tuple[int, int, Task]]] = [
            [] for _ in range(num_devices)
        ]
        #: expected time at which each worker drains its assigned queue
        self._avail = [0.0] * num_devices
        self._now = 0.0
        #: bit ``d`` set iff ``_queues[d]`` is non-empty
        self._nonempty_mask = 0

    # -------------------------------------------------------------- placing

    def push(self, task: Task, ctx: SchedulerContext) -> None:
        # Every device is priced from one sweep of the task's directory state
        # (TransferManager.estimate_transfers) and one memoized kernel row.
        transfer = ctx.transfer.estimate_transfers(task.accesses)
        kernel = ctx.kernel_estimates(task)
        avail = self._avail
        now = self._now
        best_dev, best_ect = 0, float("inf")
        for dev in range(self.num_devices):
            # max(avail[dev], now), inlined: keeps avail[dev] on ties.
            start = avail[dev]
            if now > start:
                start = now
            ect = start + transfer[dev] + kernel[dev]
            if ect < best_ect:
                best_dev, best_ect = dev, ect
        self._avail[best_dev] = best_ect
        heapq.heappush(self._queues[best_dev], (-task.priority, next(self._seq), task))
        self._nonempty_mask |= 1 << best_dev

    # -------------------------------------------------------------- serving

    def pop(
        self, device: int, ctx: SchedulerContext, idle: bool | None = None
    ) -> Task | None:
        queue = self._queues[device]
        if not queue:
            return None
        self.scheduled += 1
        task = heapq.heappop(queue)[2]
        if not queue:
            self._nonempty_mask &= ~(1 << device)
        return task

    def on_complete(self, task: Task, ctx: SchedulerContext) -> None:
        # Re-anchor availability on observed completions so estimates do not
        # drift (StarPU refreshes its worker ETAs the same way).
        self._now = max(self._now, task.end_time)
        if task.device is not None:
            self._avail[task.device] = max(self._avail[task.device], task.end_time)

    def pending(self) -> int:
        return sum(len(q) for q in self._queues)

    def empty(self) -> bool:
        return not self._nonempty_mask

    def ready_device_mask(self, ctx: SchedulerContext) -> int:
        return self._nonempty_mask
