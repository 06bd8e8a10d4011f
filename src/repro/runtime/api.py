"""The asynchronous user-facing runtime — the simulated XKBLAS/XKaapi surface.

:class:`Runtime` wires a platform to the simulator, coherence directory,
caches, fabric, transfer manager, scheduler and executor, and exposes the
XKBLAS programming model (§III, §IV-F):

* ``submit(task)`` — asynchronous task submission; dependencies between BLAS
  calls are derived from tile accesses, so sequences of calls compose without
  synchronization barriers;
* ``memory_coherent_async(matrix)`` — the *lazy* coherence operation: the user
  says which matrix must become valid on the host, the runtime schedules D2H
  write-backs as soon as the producing tasks finish;
* ``distribute_2d_block_cyclic_async(matrix, nb, distribution)`` — the
  data-on-device primitive of §IV-C
  (``xkblas_distribute_2Dblock_cyclic_async``);
* ``sync()`` — wait for everything (drains the virtual-time event heap) and
  return the makespan.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

from repro import config
from repro.errors import MemoryViewError, SchedulingError
from repro.memory.cache import (
    DeviceCache,
    EvictionPolicy,
    POLICIES,
    ReadOnlyFirstPolicy,
)
from repro.memory.coherence import CoherenceDirectory
from repro.memory.layout import BlockCyclicDistribution, TilePartition
from repro.memory.matrix import Matrix
from repro.runtime.datastore import DataStore
from repro.runtime.executor import Executor
from repro.runtime.fabric import Fabric
from repro.runtime.policies import SourcePolicy
from repro.runtime.scheduler import SCHEDULERS, LocalityWorkStealing
from repro.runtime.task import FlushTask, Task
from repro.runtime.transfer import TransferManager
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder
from repro.topology.platform import Platform


@dataclasses.dataclass(slots=True)
class RuntimeOptions:
    """Tunable knobs of one runtime instance (one library configuration)."""

    #: transfer source-selection policy — the paper's ablation axis.
    source_policy: SourcePolicy = SourcePolicy.TOPOLOGY_OPTIMISTIC
    #: scheduler name (see :data:`repro.runtime.scheduler.SCHEDULERS`):
    #: "xkaapi-locality-ws", "starpu-dmdas", "owner-computes".
    scheduler: str = "xkaapi-locality-ws"
    #: eviction policy name (see :data:`repro.memory.cache.POLICIES`).
    eviction: str = ReadOnlyFirstPolicy.name
    #: per-task host-side creation overhead, seconds.
    task_overhead: float = config.XKAAPI_TASK_OVERHEAD
    #: per-pop scheduling overhead, seconds.
    pop_overhead: float = config.SCHEDULE_POP_OVERHEAD
    #: max tasks in flight per device: the lookahead window through which a
    #: library's several kernel streams per GPU show up, since the device's
    #: one compute engine runs one kernel at a time.  Queued tasks' input
    #: transfers overlap the running kernel.
    pipeline_window: int = 8
    #: False serializes copies and kernels per stream (no overlap).
    overlap: bool = True
    #: False drops clean input replicas right after each task (batched-
    #: workspace model, e.g. SLATE's block outer product: panels are staging
    #: buffers, not a cache, so every step re-fetches over PCIe).
    retain_inputs: bool = True
    #: fraction of device memory usable as software cache.
    cache_fraction: float = 0.92
    #: record an nvprof-like trace.  The recorder only observes: a traced run
    #: dispatches exactly what an untraced one does (same submission pump,
    #: same event count), it just also keeps the intervals.  A library
    #: session sets it to whether its caller keeps the runtime
    #: (``keep_runtime``), the only way a library call's trace can be read.
    trace: bool = True
    #: submit library calls through the streaming intake
    #: (:meth:`Runtime.submit_stream`): tasks are pulled from the tiled
    #: builders' generators one at a time during the run instead of being
    #: materialized up front.  Virtual-time output is bit-identical to the
    #: eager path; combine with ``retain_tasks=False`` for bounded memory on
    #: million-task graphs.
    streaming: bool = False
    #: False lets the task graph *reclaim* finished tasks (references dropped,
    #: task list replaced by counters).  Required True for debug passes
    #: (``graph.tasks``, the verify subsystem) and for DMDAS, whose
    #: critical-path priorities need the whole DAG resident.
    retain_tasks: bool = True
    #: host page-locking (cudaHostRegister) bandwidth in bytes/s, charged once
    #: per matrix at its first host transfer.  ``None`` (default) ignores the
    #: cost, matching the paper's methodology (§IV-A: "the time to page lock
    #: the memory was ignored in all experiments"); set a figure (~5 GB/s is
    #: typical) to quantify what that exclusion hides.
    pinning_bandwidth: float | None = None
    #: run the coherence-protocol sanitizer at every directory transition
    #: (ASan-style debugging mode; see :mod:`repro.verify.coherence`).
    verify_coherence: bool = False


class Runtime:
    """One simulated multi-GPU runtime instance over a platform."""

    def __init__(self, platform: Platform, options: RuntimeOptions | None = None) -> None:
        self.platform = platform
        self.options = options or RuntimeOptions()
        opts = self.options
        # Refuse options that cannot run here, not mid-run or after a run
        # that completes nothing.
        if opts.pipeline_window < 1:
            raise SchedulingError(
                f"pipeline_window={opts.pipeline_window!r} admits no task; "
                "it must be at least 1"
            )
        if not 0.0 < opts.cache_fraction <= 1.0:
            raise SchedulingError(
                f"cache_fraction={opts.cache_fraction!r} must be in (0, 1]"
            )
        for field, overhead in (("task_overhead", opts.task_overhead),
                                ("pop_overhead", opts.pop_overhead)):
            if not overhead >= 0.0:
                raise SchedulingError(f"{field}={overhead!r} must be at least 0")
        pinning = opts.pinning_bandwidth
        if pinning is not None and not pinning > 0.0:
            raise SchedulingError(
                f"pinning_bandwidth={pinning!r} must be None or positive"
            )
        self.sim = Simulator()
        self.trace = TraceRecorder(enabled=opts.trace)
        self.directory = CoherenceDirectory()
        self.datastore = DataStore()
        self.fabric = Fabric(self.sim, platform)
        try:
            eviction: EvictionPolicy = POLICIES[opts.eviction]()
        except KeyError:
            raise SchedulingError(
                f"unknown eviction policy {opts.eviction!r}; "
                f"choose from {sorted(POLICIES)}"
            ) from None
        self.caches = {
            dev: DeviceCache(
                dev,
                int(platform.gpus[dev].memory_bytes * opts.cache_fraction),
                eviction,
            )
            for dev in platform.device_ids()
        }
        sanitizer = None
        if opts.verify_coherence:
            from repro.verify.coherence import CoherenceSanitizer

            sanitizer = CoherenceSanitizer(self.directory, platform=platform)
        self.sanitizer = sanitizer
        self.transfer = TransferManager(
            sim=self.sim,
            platform=platform,
            fabric=self.fabric,
            directory=self.directory,
            datastore=self.datastore,
            caches=self.caches,
            trace=self.trace,
            policy=opts.source_policy,
            pinning_bandwidth=opts.pinning_bandwidth,
            sanitizer=sanitizer,
        )
        try:
            make_scheduler = SCHEDULERS[opts.scheduler]
        except KeyError:
            raise SchedulingError(
                f"unknown scheduler {opts.scheduler!r}; "
                f"choose from {sorted(SCHEDULERS)}"
            ) from None
        self.scheduler = make_scheduler(platform.num_gpus)
        self.executor = Executor(
            sim=self.sim,
            platform=platform,
            scheduler=self.scheduler,
            transfer=self.transfer,
            trace=self.trace,
            task_overhead=opts.task_overhead,
            pop_overhead=opts.pop_overhead,
            pipeline_window=opts.pipeline_window,
            overlap=opts.overlap,
            retain_inputs=opts.retain_inputs,
            retain_tasks=opts.retain_tasks,
        )
        self._partitions: dict[int, TilePartition] = {}

    # ---------------------------------------------------------------- tiling

    def partition(self, matrix: Matrix, nb: int) -> TilePartition:
        """Tile a matrix (cached per matrix; one tiling per runtime).

        A second tile size for a matrix already tiled here raises
        :class:`MemoryViewError`: its tiles would reuse the first tiling's
        keys in the directory, the caches, the dependency history and the
        data store."""
        part = self._partitions.get(matrix.id)
        if part is None:
            part = TilePartition(matrix, nb)
            self._partitions[matrix.id] = part
            for tile in part:
                self.datastore.register(tile)
        elif part.nb != nb:
            raise MemoryViewError(
                f"matrix {matrix.name!r} is tiled at nb={part.nb} in this "
                f"runtime; it cannot be re-tiled at nb={nb}"
            )
        return part

    # ------------------------------------------------------------ submission

    def submit(self, task: Task) -> Task:
        """Submit one asynchronous task."""
        return self.executor.submit(task)

    def submit_stream(self, tasks: Iterable[Task]) -> None:
        """Submit tasks lazily: each is pulled at the previous submission
        instant, so at most one unsubmitted task of the stream is resident.

        Bit-identical virtual-time accounting to a loop of :meth:`submit`
        over the same tasks (same submission order, same ``task_overhead``
        charges, one event per task).  Schedulers that need whole-DAG
        critical-path priorities (DMDAS, ``needs_priorities=True``) cannot
        act on a graph that is not materialized, so for them the stream is
        drained eagerly — that same loop, documented in DESIGN §9.
        """
        if self.scheduler.needs_priorities:
            for task in tasks:
                self.executor.submit(task)
            return
        self.executor.submit_stream(tasks)

    # ---------------------------------------------------------- lazy flushes

    def memory_coherent_async(self, matrix: Matrix, nb: int | None = None) -> None:
        """Schedule host write-backs of a matrix's tiles (lazy coherence).

        Each tile gets a reads-only :class:`FlushTask` depending on its last
        writer, so D2H transfers start "as soon as tile results are computed"
        (§IV-F) and overlap the remaining computation.
        """
        part = self._partitions.get(matrix.id)
        if part is None:
            part = self.partition(matrix, nb or config.DEFAULT_TILE_SIZE)
        for tile in part:
            self.executor.submit(
                FlushTask(name="flush", accesses=[tile.read_access], flops=0.0, dim=tile.m)
            )

    # -------------------------------------------------------- data-on-device

    def distribute_2d_block_cyclic_async(
        self,
        matrix: Matrix,
        nb: int,
        distribution: BlockCyclicDistribution,
        upload: bool = True,
    ) -> TilePartition:
        """Place a matrix's tiles on devices in 2D block-cyclic fashion.

        With ``upload=True`` the placement is performed by H2D transfers at
        time zero (charged to the run only if the caller does not reset
        timing); with ``upload=False`` the tiles are *seeded* directly in
        device memory, modelling matrices that already live on the GPUs as in
        the paper's data-on-device scenario (time to distribute excluded).
        """
        part = self.partition(matrix, nb)
        for tile in part:
            dev = distribution.owner(tile.i, tile.j)
            if upload:
                self.transfer.ensure_resident(tile, dev)
            else:
                # Register up front: the residency fast paths rely on every
                # device-valid tile being known to the data store already.
                self.datastore.register(tile)
                self.directory.seed_device(self.directory.lookup(tile.key), dev, exclusive=True)
                self.caches[dev].insert(tile.key, tile.nbytes, now=self.sim.now)
                self.caches[dev].mark_dirty(tile.key, True)
                # Numeric seeding: materialize the device array from host data.
                if matrix.numeric:
                    self.datastore.allocate_device_tile(tile, dev)
                    self.datastore.device_array(dev, tile.key)[...] = (
                        self.datastore.host_view(tile)
                    )
        return part

    # ------------------------------------------------------------------ sync

    def sync(self) -> float:
        """Wait for all submitted work; returns the virtual makespan (s)."""
        return self.executor.run_to_completion()

    # ------------------------------------------------------------ statistics

    def stats(self) -> dict[str, object]:
        """Aggregate run statistics (transfers, cache hits, steals...)."""
        out: dict[str, object] = {
            "makespan": self.sim.now,
            "tasks": self.executor.completed_tasks,
            "transfers": self.transfer.stats(),
            "host_bytes": self.fabric.host_bytes_total(),
            "p2p_bytes": self.fabric.p2p_bytes_total(),
            "caches": {dev: c.stats() for dev, c in self.caches.items()},
        }
        if isinstance(self.scheduler, LocalityWorkStealing):
            out["steals"] = self.scheduler.steals
        return out
