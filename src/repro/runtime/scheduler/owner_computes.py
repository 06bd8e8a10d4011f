"""Strict owner-computes scheduling from each task's owner hint.

The libraries with a static distribution (cuBLAS-XT, cuBLAS-MG's 2D block
cyclic, SLATE) set ``Task.owner_hint``; every task runs on that device, no
stealing.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SchedulingError
from repro.runtime.scheduler.base import Scheduler, SchedulerContext
from repro.runtime.task import Task


class OwnerComputesScheduler(Scheduler):
    name = "owner-computes"

    def __init__(self, num_devices: int) -> None:
        super().__init__(num_devices)
        self._queues: list[deque[Task]] = [deque() for _ in range(num_devices)]
        self._nonempty_mask = 0

    def push(self, task: Task, ctx: SchedulerContext) -> None:
        dev = task.owner_hint
        if dev is None:
            raise SchedulingError(f"{task!r}: owner-computes needs an owner_hint")
        if not 0 <= dev < self.num_devices:
            raise SchedulingError(f"{task!r}: owner {dev} out of range")
        self._queues[dev].append(task)
        self._nonempty_mask |= 1 << dev

    def pop(
        self, device: int, ctx: SchedulerContext, idle: bool | None = None
    ) -> Task | None:
        queue = self._queues[device]
        if not queue:
            return None
        task = queue.popleft()
        if not queue:
            self._nonempty_mask &= ~(1 << device)
        return task

    def pending(self) -> int:
        return sum(len(q) for q in self._queues)

    def empty(self) -> bool:
        return not self._nonempty_mask

    def ready_device_mask(self, ctx: SchedulerContext) -> int:
        return self._nonempty_mask
