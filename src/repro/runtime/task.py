"""Tasks.

A :class:`Task` couples a set of tile accesses with a compute model (flop
count + characteristic dimension, used by perf mode) and an optional numeric
kernel (a callable over NumPy arrays, used by numeric mode).  Dependencies are
not stored here — :mod:`repro.runtime.dataflow` derives them from the access
declarations in submission order.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from repro.errors import TaskGraphError
from repro.memory.tile import Tile
from repro.runtime.access import Access

_task_ids = itertools.count()

_NAN = float("nan")

#: Signature of a numeric kernel: receives the device arrays of the task's
#: accesses *in declaration order* and mutates the written ones in place.
NumericKernel = Callable[..., None]


class Task:
    """One schedulable kernel invocation.

    Parameters
    ----------
    name:
        Kernel name ("dgemm", "dtrsm"...), used for traces and debugging.
    accesses:
        Tile accesses in kernel-argument order.
    flops:
        Floating-point operations performed (drives perf-mode duration).
    dim:
        Characteristic dimension for the GPU efficiency curve.
    kernel:
        Numeric implementation (optional; required only in numeric mode).
    regularity:
        Efficiency scale of the kernel class (GEMM 1.0, TRSM lower).
    priority:
        Larger runs earlier under priority-aware schedulers; tiled algorithms
        set it to the remaining critical-path estimate.
    owner_hint:
        Device preferred by owner-computes/static schedulers, or ``None``.

    The tiled builders emit thousands of tasks per call, so the constructor
    sets every slot in one frame and derives the runtime's per-task lookups
    (below) in the same pass over the accesses.
    """

    __slots__ = (
        "name", "accesses", "flops", "dim", "kernel", "regularity", "priority",
        "owner_hint", "access_keys", "write_accesses", "kt_shape",
        "output_tile", "uid", "unfinished_predecessors", "successors",
        "submitted", "device", "start_time", "end_time", "state", "__weakref__",
    )

    def __init__(
        self,
        name: str,
        accesses: Sequence[Access],
        flops: float,
        dim: int,
        kernel: NumericKernel | None = None,
        regularity: float = 1.0,
        *,
        priority: int = 0,
        owner_hint: int | None = None,
    ) -> None:
        if flops < 0:
            raise TaskGraphError(f"task {name}: negative flops")
        if not accesses:
            raise TaskGraphError(f"task {name}: a task must access data")
        self.name = name
        self.accesses: Sequence[Access] = accesses
        self.flops = flops
        self.dim = dim
        self.kernel = kernel
        self.regularity = regularity
        self.priority = priority
        self.owner_hint = owner_hint
        # --- fields managed by the runtime ---
        #: process-global on purpose: uids only need to be unique per process
        #: (executor bookkeeping sets, repr); no decision arithmetic consumes
        #: them — lint rule D106 would flag it if one ever did.
        self.uid = next(_task_ids)  # det: unique-only, never decision input
        self.unfinished_predecessors = 0
        self.successors: list[Task] = []
        #: set by the executor once the task's submission instant has passed —
        #: a flag on the task (not a uid set) so the check per successor edge
        #: is one attribute load and reclaiming graphs carry no growing set.
        self.submitted = False
        self.device: int | None = None  # assigned at execution
        self.start_time = _NAN
        self.end_time = _NAN
        self.state = "created"  # created -> ready -> running -> done
        keys = []
        out = None
        writes = []
        for a in accesses:
            keys.append(a.tile.key)
            if a.writes:
                writes.append(a)
                if out is None:
                    out = a.tile
        if out is None:
            out = accesses[0].tile
        #: keys of every accessed tile (accesses are immutable after
        #: construction); the executor passes this as the eviction-protect
        #: set on every input transfer instead of rebuilding it per launch.
        self.access_keys: tuple = tuple(keys)
        #: the written accesses: write registration runs once per finished
        #: task and only visits these.
        self.write_accesses: tuple = tuple(writes)
        #: the first written tile (first access for reads-only tasks) — the
        #: owner-computes anchor the schedulers read on every push.
        self.output_tile: Tile | None = out
        #: ``(flops, dim, regularity)`` — the key of the runtime's one
        #: kernel-time table (:attr:`SchedulerContext.kernel_times`).
        self.kt_shape: tuple = (flops, dim, regularity)

    # -------------------------------------------------------------- queries

    @property
    def reads(self) -> list[Tile]:
        return [a.tile for a in self.accesses if a.reads]

    @property
    def writes(self) -> list[Tile]:
        return [a.tile for a in self.accesses if a.writes]

    def run_numeric(self, arrays: Sequence[np.ndarray]) -> None:
        """Execute the numeric kernel over the device arrays."""
        if self.kernel is None:
            raise TaskGraphError(f"task {self.name} has no numeric kernel")
        self.kernel(*arrays)

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def __repr__(self) -> str:
        return f"Task#{self.uid}({self.name}, {list(self.accesses)!r})"


class FlushTask(Task):
    """A host flush of ``Runtime.memory_coherent_async``: reads its one tile
    and, once schedulable, writes it back to the host instead of entering a
    device scheduler (lazy coherence, §IV-F)."""

    __slots__ = ()
