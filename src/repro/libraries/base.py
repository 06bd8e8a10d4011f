"""Common machinery of the simulated libraries.

:class:`SimulatedLibrary` turns a library description (runtime options +
per-call semantics + supported routines) into the BLAS-3 calls of the
routine table (:mod:`repro.blas.routines`) the paper benchmarks:
``lib.call(routine, nb, **args)`` takes the operands and any parameter that
differs from the row's defaults, by BLAS name.  Every call
follows the paper's data-on-host methodology by default — operands start on
the host, the measured time includes moving the result back (§IV-A) — and a
``scenario="device"`` variant implements the data-on-device methodology of
§IV-C.

:class:`Session` exposes the asynchronous composition interface (§IV-F): on
libraries with asynchronous semantics (XKBLAS) consecutive calls share one
runtime and compose through the dataflow dependencies; on libraries with
synchronous semantics (cuBLAS-XT, Chameleon as driven by the paper's
composition benchmark) each call ends with a barrier — reproducing the Fig. 9
synchronization gaps.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator

from repro.blas.routines import ROUTINES
from repro.errors import LibraryError
from repro.memory.layout import BlockCyclicDistribution, default_grid
from repro.memory.matrix import Matrix
from repro.runtime.api import Runtime, RuntimeOptions
from repro.runtime.task import Task
from repro.topology.platform import Platform

#: The paper's "9 standard BLAS subroutines" (§IV-D), in routine-table
#: order.  Full-featured libraries (cuBLAS-XT, Chameleon, XKBLAS, SLATE,
#: DPLASMA-CPU) expose all of them; each library class declares its subset.
ALL_ROUTINES = tuple(ROUTINES)


@dataclasses.dataclass
class LibraryResult:
    """Outcome of one simulated routine invocation."""

    library: str
    routine: str
    m: int
    n: int
    nb: int
    seconds: float
    flops: float
    scenario: str = "host"
    runtime: Runtime | None = dataclasses.field(default=None, repr=False)

    @property
    def gflops(self) -> float:
        return self.flops / self.seconds / 1e9 if self.seconds > 0 else 0.0

    @property
    def tflops(self) -> float:
        return self.gflops / 1e3

    def transfer_share(self) -> float:
        """Share of cumulative traced time spent in transfers (Fig. 6 right)."""
        if self.runtime is None:
            raise LibraryError("result kept no runtime (pass keep_runtime=True)")
        return self.runtime.trace.transfer_share()


class SimulatedLibrary:
    """Base class: a library is a runtime configuration + call semantics.

    Subclasses override the class attributes and, where needed,
    :meth:`_owner_hint` (static distributions) and
    :meth:`_call_conversion_cost` (layout conversions).
    """

    name = "abstract"
    #: routines this library implements (missing ones raise LibraryError,
    #: producing the missing points of the paper's Fig. 5).
    routines: tuple[str, ...] = ALL_ROUTINES
    #: synchronous per-call semantics (cuBLAS-XT): barrier + host flush +
    #: device-replica invalidation after every call.
    synchronous = False
    #: barrier (but no flush) between composed calls (Chameleon as measured).
    barrier_between_calls = False
    #: largest supported matrix dimension (BLASX's allocation failures).
    max_dimension: int | None = None
    #: distribute all operands to their static owners and barrier before any
    #: kernel runs (cuBLAS-MG's scatter/compute/gather phases).
    predistribute = False

    def __init__(self, platform: Platform) -> None:
        self.platform = platform
        #: the 2D block-cyclic tile owners over the platform's GPUs (§IV-C):
        #: data-on-device placement, cuBLAS-MG's scatter, and the static
        #: owners of cuBLAS-MG and SLATE.
        self.distribution = BlockCyclicDistribution(*default_grid(platform.num_gpus))

    # ------------------------------------------------------------ overrides

    def runtime_options(self) -> RuntimeOptions:
        """The runtime configuration implementing this library's design."""
        return RuntimeOptions()

    def _owner_hint(self, task: Task, grid_shape: tuple[int, int]) -> int | None:
        """Static device assignment of a task (None = dynamic scheduling)."""
        return None

    def _call_conversion_cost(self, operands: list[Matrix], output: Matrix) -> float:
        """Host-side layout-conversion time charged per call (Chameleon-LAPACK
        converts operands to tile layout on entry and the result back on
        exit, §IV-D)."""
        return 0.0

    # ----------------------------------------------------------- public API

    def session(self, keep_runtime: bool = False) -> "Session":
        """Open a composition session (one shared runtime across calls).

        The runtime records an nvprof-like trace only with ``keep_runtime``:
        a caller that drops it could not read one."""
        return Session(self, keep_runtime=keep_runtime)

    def call(self, routine: str, nb: int, scenario: str = "host",
             keep_runtime: bool = False, **args) -> LibraryResult:
        """One routine call in its own session, measured per the scenario.

        ``args`` are the call's operands and the BLAS parameters it changes
        from its row's defaults in :data:`~repro.blas.routines.ROUTINES`, by
        their BLAS names.
        """
        session = self.session(keep_runtime=keep_runtime)
        output = session.call_async(routine, nb, scenario, **args)
        return session.finish(routine, nb, scenario, output)


class Session:
    """Composition session: asynchronous calls sharing one runtime."""

    def __init__(self, library: SimulatedLibrary, keep_runtime: bool = False) -> None:
        self.library = library
        options = library.runtime_options()
        # Only a caller that keeps the runtime can read its trace, so a
        # session whose runtime is dropped records none.
        options.trace = keep_runtime
        self.runtime = Runtime(library.platform, options)
        self.keep_runtime = keep_runtime
        self._calls = 0
        self._extra_host_seconds = 0.0
        #: standard flop count of the calls submitted so far.
        self.flops = 0.0

    # ------------------------------------------------------------- plumbing

    def _prepare(self, matrices: list[Matrix], nb: int, scenario: str):
        output = matrices[-1]
        self._extra_host_seconds += self.library._call_conversion_cost(
            list(matrices[:-1]), output
        )
        parts = [self.runtime.partition(m, nb) for m in matrices]
        # Data-on-device starts every operand on its 2D block-cyclic owner;
        # cuBLAS-MG's phases scatter it there over PCIe, then barrier before
        # the first kernel.
        scatter = scenario == "host" and self.library.predistribute
        if scatter or (scenario == "device" and self._calls == 0):
            for m in matrices:
                self.runtime.distribute_2d_block_cyclic_async(
                    m, nb, self.library.distribution, upload=scatter
                )
            if scatter:
                self.runtime.sync()
        return parts

    def _submit(self, tasks: Iterable[Task], grid_shape, output: Matrix, nb: int) -> None:
        lib = self.library

        # Owner hints are applied per task as it is pulled, so a streaming
        # runtime still materializes no task ahead of its submission instant.
        def hinted() -> Iterator[Task]:
            for task in tasks:
                hint = lib._owner_hint(task, grid_shape)
                if hint is not None:
                    task.owner_hint = hint
                yield task

        if self.runtime.options.streaming:
            self.runtime.submit_stream(hinted())
        else:
            for task in hinted():
                self.runtime.submit(task)
        self._calls += 1
        if lib.synchronous:
            # cuBLAS-XT semantics: result home after every call, device
            # replicas dropped (data "transferred back and forth", §IV-F).
            self.runtime.memory_coherent_async(output, nb)
            self.runtime.sync()
            self._invalidate_device_replicas()
        elif lib.barrier_between_calls:
            # Chameleon-style synchronization point: the runtime barrier also
            # imposes CPU-memory consistency (§IV-F), so the call's output is
            # flushed home; device replicas stay valid (SHARED) for reuse.
            self.runtime.memory_coherent_async(output, nb)
            self.runtime.sync()

    def _invalidate_device_replicas(self) -> None:
        rt = self.runtime
        for dev, cache in rt.caches.items():
            for key in cache.resident_keys():
                if cache.pin_count(key):
                    continue
                cache.remove(key)
                rt.datastore.drop_device_tile(key, dev)
        directory = rt.directory
        for mid, part in rt._partitions.items():  # noqa: SLF001
            for tile in part:
                tid = directory.lookup(tile.key)
                if directory.host_valid(tid):
                    directory.invalidate_device_replicas(tid)

    # -------------------------------------------------------- async methods

    def call_async(self, routine: str, nb: int, scenario: str = "host", **args) -> Matrix:
        """Submit one routine call and add its flops to :attr:`flops`;
        returns the matrix it writes.

        ``args`` are the operands and the parameters that differ from the
        row's defaults, by their BLAS names."""
        lib = self.library
        if routine not in lib.routines:
            raise LibraryError(f"{lib.name} does not implement {routine.upper()}")
        row = ROUTINES[routine]
        args = {**row.defaults, **args}
        matrices = [args[name] for name in row.operands]
        if lib.max_dimension is not None:
            big = max(max(m.m, m.n) for m in matrices)
            if big > lib.max_dimension:
                raise LibraryError(
                    f"{lib.name}: memory allocation error for dimension {big} "
                    f"(> {lib.max_dimension})"
                )
        parts = self._prepare(matrices, nb, scenario)
        tasks = row.build(**{**args, **dict(zip(row.operands, parts))})
        self._submit(tasks, parts[-1].shape, matrices[-1], nb)
        self.flops += row.flops(**args)
        return matrices[-1]

    def memory_coherent_async(self, matrix: Matrix, nb: int | None = None) -> None:
        self.runtime.memory_coherent_async(matrix, nb)

    def sync(self) -> float:
        runtime = self.runtime
        graph = runtime.executor.graph
        # Only a scheduler that reads Task.priority (DMDAS) needs the pass.
        if runtime.scheduler.needs_priorities and graph.retain_tasks:
            graph.critical_path_priorities()
        return runtime.sync()

    @property
    def extra_host_seconds(self) -> float:
        """Serial host time charged so far (layout conversions)."""
        return self._extra_host_seconds

    # ---------------------------------------------------------- measurement

    def finish(self, routine: str, nb: int, scenario: str,
               output: Matrix) -> LibraryResult:
        """Flush the result home (host scenario), sync, and build the result
        over the session's flop total."""
        lib = self.library
        if scenario == "host" and not lib.synchronous:
            self.runtime.memory_coherent_async(output, nb)
        seconds = self.sync()
        seconds += self._extra_host_seconds
        return LibraryResult(
            library=lib.name,
            routine=routine,
            m=output.m,
            n=output.n,
            nb=nb,
            seconds=seconds,
            flops=self.flops,
            scenario=scenario,
            runtime=self.runtime if self.keep_runtime else None,
        )
