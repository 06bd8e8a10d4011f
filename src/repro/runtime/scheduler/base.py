"""Scheduler interface.

A scheduler receives tasks when they become *schedulable* (all dependencies
done and the submission overhead paid) and serves device workers that ask for
work.  It is consulted at virtual-time events only — all state lives in plain
Python structures, keeping runs deterministic.

Schedulers may use a :class:`SchedulerContext`, which the executor builds
and wires, to ask locality and load questions (where do a task's input tiles
live? how busy is each device?) and to price a kernel from the same
kernel-time table the executor times its launch from, without depending on
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
    """Read-only view of runtime state offered to scheduling policies.

    The executor builds the one context of a run and wires its load queries
    to the device workers.
    """

    platform: Platform
    directory: CoherenceDirectory
    transfer: "TransferManager"
    #: compute backlog (seconds of queued kernels) of one device, so
    #: load-aware policies can see starvation.
    device_load: "typing.Callable[[int], float]"
    #: is the device idle (below its steal threshold, or its stream drained)?
    #: Schedulers resolve it lazily, only for workers whose own queue came up
    #: empty.
    device_idle: "typing.Callable[[int], bool]"
    #: every device's backlog in one call, indexed by device id.
    device_loads: "typing.Callable[[], list[float]]"
    #: the run's one kernel-time table: ``Task.kt_shape`` -> the kernel's
    #: duration on every device, filled by :meth:`kernel_row` on first use of
    #: a shape.  The executor times launches from it and the schedulers
    #: price placements from it, so the two never disagree.
    kernel_times: dict = dataclasses.field(default_factory=dict)

    def kernel_row(self, task: Task) -> tuple[float, ...]:
        """Duration of ``task``'s kernel on every device, indexed by id."""
        shape = task.kt_shape
        row: tuple[float, ...] | None = self.kernel_times.get(shape)
        if row is None:
            flops, dim, regularity = shape
            row = self.kernel_times[shape] = tuple(
                gpu.kernel_time(flops, dim, regularity) for gpu in self.platform.gpus
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
