"""Scheduler interface.

A scheduler receives tasks when they become *schedulable* (all dependencies
done and the submission overhead paid) and serves device workers that ask for
work.  It is consulted at virtual-time events only — all state lives in plain
Python structures, keeping runs deterministic.

Schedulers may use a :class:`SchedulerContext` to ask locality questions
(where do a task's input tiles live? how big are they?) without depending on
the full executor.
"""

from __future__ import annotations

import abc
import dataclasses
import typing

from repro.memory.coherence import CoherenceDirectory
from repro.runtime.task import Task
from repro.topology.platform import Platform

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.transfer import TransferManager


@dataclasses.dataclass(slots=True)
class SchedulerContext:
    """Read-only view of runtime state offered to scheduling policies."""

    platform: Platform
    directory: CoherenceDirectory
    transfer: "TransferManager"
    #: compute backlog (seconds of queued kernels) per device; wired by the
    #: executor so load-aware policies can see starvation.
    device_load: "typing.Callable[[int], float]" = lambda dev: 0.0
    #: is the device idle (nothing in flight / below its steal threshold)?
    #: Wired by the executor; schedulers resolve it lazily so the answer is
    #: only computed for workers whose own queue came up empty.
    device_idle: "typing.Callable[[int], bool]" = lambda dev: True
    #: bulk form of :attr:`device_load`: every device's backlog in one call,
    #: indexed by device id.  ``None`` (the default) means not wired —
    #: policies must fall back to per-device ``device_load``, which keeps
    #: tests that stub ``device_load`` alone honest.
    device_loads: "typing.Callable[[], list[float]] | None" = None
    #: memoized :meth:`kernel_estimate` results — tiled graphs repeat a few
    #: (flops, dim, regularity) shapes across thousands of pushes, and the
    #: efficiency-curve arithmetic is pure per device.
    _kernel_time_cache: dict = dataclasses.field(default_factory=dict)
    #: memoized :meth:`kernel_estimates` rows, one per task shape.
    _kernel_rows: dict = dataclasses.field(default_factory=dict)

    def kernel_estimate(self, task: Task, device: int) -> float:
        key = (device, task.flops, task.dim, task.regularity)
        est = self._kernel_time_cache.get(key)
        if est is None:
            spec = self.platform.gpus[device]
            est = self._kernel_time_cache[key] = spec.kernel_time(
                task.flops, task.dim, regularity=task.regularity
            )
        return est

    def kernel_estimates(self, task: Task) -> tuple[float, ...]:
        """:meth:`kernel_estimate` of ``task`` on every device, memoized per
        ``(flops, dim, regularity)`` shape."""
        shape = (task.flops, task.dim, task.regularity)
        row: tuple[float, ...] | None = self._kernel_rows.get(shape)
        if row is None:
            row = self._kernel_rows[shape] = tuple(
                self.kernel_estimate(task, dev) for dev in self.platform.device_ids()
            )
        return row


class Scheduler(abc.ABC):
    """Maps schedulable tasks onto devices on demand."""

    name = "abstract"
    #: True for policies whose decisions read ``Task.priority`` (DMDAS).
    #: Critical-path priorities need the whole DAG materialized before the
    #: run, so ``Runtime.submit_stream`` falls back to eager submission for
    #: such schedulers and reclaiming graphs are documented as unsupported
    #: with them (see DESIGN §9).
    needs_priorities = False

    def __init__(self, num_devices: int) -> None:
        self.num_devices = num_devices
        self.scheduled = 0
        #: bitmask with every device bit set; basis for ready-device masks.
        self._all_mask = (1 << num_devices) - 1

    @abc.abstractmethod
    def push(self, task: Task, ctx: SchedulerContext) -> None:
        """Accept a task that became schedulable."""

    @abc.abstractmethod
    def pop(
        self, device: int, ctx: SchedulerContext, idle: bool | None = None
    ) -> Task | None:
        """Serve one task for ``device``, or ``None`` when nothing suits it.

        ``idle`` is True when the device has no task in flight; work-stealing
        schedulers only steal for idle devices (a busy worker enqueues ahead
        from its own deque but does not raid its neighbours).  ``None`` means
        "not computed yet": schedulers that care resolve it on demand through
        ``ctx.device_idle``, so the common own-queue hit skips the idleness
        computation entirely.
        """

    @abc.abstractmethod
    def pending(self) -> int:
        """Number of tasks queued inside the scheduler."""

    def empty(self) -> bool:
        """True when no task is queued anywhere.

        Consulted by the executor before each wake round so an empty
        scheduler costs one cheap check instead of a pop attempt (with its
        idleness computation) per worker.  Subclasses with several internal
        queues should override with a direct truth test.
        """
        return self.pending() == 0

    def ready_device_mask(self, ctx: SchedulerContext) -> int:
        """Bitmask of devices :meth:`pop` could serve *regardless of idleness*.

        A conservative superset is fine — the executor still calls ``pop``
        and tolerates ``None`` — but a device whose bit is clear is a promise:
        popping for it (unless it is idle and :meth:`has_stealable_work`)
        would return ``None``, so the wake loop skips it without the call.
        The default is all-or-nothing on :meth:`empty`; indexed schedulers
        override with their per-device non-empty masks.
        """
        return 0 if self.empty() else self._all_mask

    def has_stealable_work(self, ctx: SchedulerContext) -> bool:
        """Could an *idle* device outside :meth:`ready_device_mask` get work?

        Work-stealing schedulers return True while their shared queue is
        non-empty or a peer deque is raidable; everyone else keeps the
        default False, which lets the executor's wake loop skip busy workers
        with no owned work without a pop attempt each.
        """
        return False

    def on_complete(self, task: Task, ctx: SchedulerContext) -> None:
        """Completion hook (optional; e.g. performance-model updates)."""
