"""Common machinery of the simulated libraries.

:class:`SimulatedLibrary` turns a library description (runtime options +
per-call semantics + supported routines) into the six BLAS-3 entry points the
paper benchmarks.  Every call follows the paper's data-on-host methodology by
default — operands start on the host, the measured time includes moving the
result back (§IV-A) — and a ``scenario="device"`` variant implements the
data-on-device methodology of §IV-C.

:class:`Session` exposes the asynchronous composition interface (§IV-F): on
libraries with asynchronous semantics (XKBLAS) consecutive calls share one
runtime and compose through the dataflow dependencies; on libraries with
synchronous semantics (cuBLAS-XT, Chameleon as driven by the paper's
composition benchmark) each call ends with a barrier — reproducing the Fig. 9
synchronization gaps.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

from repro.blas import flops as fl
from repro.blas.params import Diag, Side, Trans, Uplo
from repro.blas.tiled import (
    build_gemm,
    build_hemm,
    build_her2k,
    build_herk,
    build_symm,
    build_syr2k,
    build_syrk,
    build_trmm,
    build_trsm,
)
from repro.errors import LibraryError
from repro.memory.layout import BlockCyclicDistribution, default_grid
from repro.memory.matrix import Matrix
from repro.runtime.api import Runtime, RuntimeOptions
from repro.runtime.task import Task
from repro.topology.platform import Platform

#: The paper's "9 standard BLAS subroutines" (§IV-D): the six of Fig. 5 plus
#: the Hermitian versions of SYMM, SYR2K and SYRK.  Full-featured libraries
#: (cuBLAS-XT, Chameleon, XKBLAS, SLATE, DPLASMA-CPU) expose all of them; each
#: library class declares its subset.
ALL_ROUTINES = (
    "gemm",
    "symm",
    "syr2k",
    "syrk",
    "trmm",
    "trsm",
    "hemm",
    "her2k",
    "herk",
)


@dataclasses.dataclass
class LibraryResult:
    """Outcome of one simulated routine invocation."""

    library: str
    routine: str
    m: int
    n: int
    k: int
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
    :meth:`_owner_hint` (static distributions) and :meth:`_host_overhead`
    (layout conversions).
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
        """Open a composition session (one shared runtime across calls)."""
        return Session(self, keep_runtime=keep_runtime)

    def gemm(
        self,
        alpha: float,
        a: Matrix,
        b: Matrix,
        beta: float,
        c: Matrix,
        nb: int,
        transa: Trans = Trans.NOTRANS,
        transb: Trans = Trans.NOTRANS,
        scenario: str = "host",
        keep_runtime: bool = False,
    ) -> LibraryResult:
        """``C = alpha op(A) op(B) + beta C`` on the simulated platform."""
        session = self.session(keep_runtime=keep_runtime)
        session.gemm_async(alpha, a, b, beta, c, nb, transa, transb, scenario=scenario)
        return session.finish("gemm", c.m, c.n, _inner_dim(a, transa), nb, scenario, c)

    def symm(self, side: Side, uplo: Uplo, alpha, a, b, beta, c, nb,
             scenario: str = "host", keep_runtime: bool = False) -> LibraryResult:
        session = self.session(keep_runtime=keep_runtime)
        session.symm_async(side, uplo, alpha, a, b, beta, c, nb, scenario=scenario)
        k = c.m if side is Side.LEFT else c.n
        return session.finish("symm", c.m, c.n, k, nb, scenario, c)

    def syrk(self, uplo: Uplo, trans: Trans, alpha, a, beta, c, nb,
             scenario: str = "host", keep_runtime: bool = False) -> LibraryResult:
        session = self.session(keep_runtime=keep_runtime)
        session.syrk_async(uplo, trans, alpha, a, beta, c, nb, scenario=scenario)
        k = a.n if trans is Trans.NOTRANS else a.m
        return session.finish("syrk", c.m, c.n, k, nb, scenario, c)

    def syr2k(self, uplo: Uplo, trans: Trans, alpha, a, b, beta, c, nb,
              scenario: str = "host", keep_runtime: bool = False) -> LibraryResult:
        session = self.session(keep_runtime=keep_runtime)
        session.syr2k_async(uplo, trans, alpha, a, b, beta, c, nb, scenario=scenario)
        k = a.n if trans is Trans.NOTRANS else a.m
        return session.finish("syr2k", c.m, c.n, k, nb, scenario, c)

    def trmm(self, side: Side, uplo: Uplo, transa: Trans, diag: Diag, alpha, a, b, nb,
             scenario: str = "host", keep_runtime: bool = False) -> LibraryResult:
        session = self.session(keep_runtime=keep_runtime)
        session.trmm_async(side, uplo, transa, diag, alpha, a, b, nb, scenario=scenario)
        k = b.m if side is Side.LEFT else b.n
        return session.finish("trmm", b.m, b.n, k, nb, scenario, b)

    def trsm(self, side: Side, uplo: Uplo, transa: Trans, diag: Diag, alpha, a, b, nb,
             scenario: str = "host", keep_runtime: bool = False) -> LibraryResult:
        session = self.session(keep_runtime=keep_runtime)
        session.trsm_async(side, uplo, transa, diag, alpha, a, b, nb, scenario=scenario)
        k = b.m if side is Side.LEFT else b.n
        return session.finish("trsm", b.m, b.n, k, nb, scenario, b)

    def hemm(self, side: Side, uplo: Uplo, alpha, a, b, beta, c, nb,
             scenario: str = "host", keep_runtime: bool = False) -> LibraryResult:
        """Hermitian SYMM (one of the 9 standard routines, §IV-D)."""
        session = self.session(keep_runtime=keep_runtime)
        session.hemm_async(side, uplo, alpha, a, b, beta, c, nb, scenario=scenario)
        k = c.m if side is Side.LEFT else c.n
        return session.finish("hemm", c.m, c.n, k, nb, scenario, c)

    def herk(self, uplo: Uplo, trans: Trans, alpha, a, beta, c, nb,
             scenario: str = "host", keep_runtime: bool = False) -> LibraryResult:
        """Hermitian SYRK."""
        session = self.session(keep_runtime=keep_runtime)
        session.herk_async(uplo, trans, alpha, a, beta, c, nb, scenario=scenario)
        k = a.n if trans is Trans.NOTRANS else a.m
        return session.finish("herk", c.m, c.n, k, nb, scenario, c)

    def her2k(self, uplo: Uplo, trans: Trans, alpha, a, b, beta, c, nb,
              scenario: str = "host", keep_runtime: bool = False) -> LibraryResult:
        """Hermitian SYR2K."""
        session = self.session(keep_runtime=keep_runtime)
        session.her2k_async(uplo, trans, alpha, a, b, beta, c, nb, scenario=scenario)
        k = a.n if trans is Trans.NOTRANS else a.m
        return session.finish("her2k", c.m, c.n, k, nb, scenario, c)

    # ------------------------------------------------------------ internals

    def _check_routine(self, routine: str, dims: Iterable[int]) -> None:
        if routine not in self.routines:
            raise LibraryError(f"{self.name} does not implement {routine.upper()}")
        if self.max_dimension is not None:
            big = max(dims)
            if big > self.max_dimension:
                raise LibraryError(
                    f"{self.name}: memory allocation error for dimension {big} "
                    f"(> {self.max_dimension})"
                )


def _inner_dim(a: Matrix, transa: Trans) -> int:
    return a.n if transa is Trans.NOTRANS else a.m


class Session:
    """Composition session: asynchronous calls sharing one runtime."""

    def __init__(self, library: SimulatedLibrary, keep_runtime: bool = False) -> None:
        self.library = library
        self.runtime = Runtime(library.platform, library.runtime_options())
        self.keep_runtime = keep_runtime
        self._calls = 0
        self._outputs: list[tuple[Matrix, int]] = []
        self._extra_host_seconds = 0.0

    # ------------------------------------------------------------- plumbing

    def _prepare(self, matrices: list[Matrix], nb: int, scenario: str):
        output = matrices[-1]
        self._extra_host_seconds += self.library._call_conversion_cost(
            list(matrices[:-1]), output
        )
        parts = [self.runtime.partition(m, nb) for m in matrices]
        if scenario == "device" and self._calls == 0:
            grid_p, grid_q = default_grid(self.library.platform.num_gpus)
            dist = BlockCyclicDistribution(grid_p, grid_q)
            for m in matrices:
                self.runtime.distribute_2d_block_cyclic_async(
                    m, nb, dist, upload=False
                )
        elif scenario == "host" and self.library.predistribute:
            # cuBLAS-MG phases: scatter every operand to its 2D block-cyclic
            # owner over PCIe, then barrier before the first kernel.
            grid_p, grid_q = default_grid(self.library.platform.num_gpus)
            dist = BlockCyclicDistribution(grid_p, grid_q)
            for m in matrices:
                self.runtime.distribute_2d_block_cyclic_async(m, nb, dist, upload=True)
            self.runtime.sync()
        return parts

    def _submit(self, routine: str, tasks: Iterable[Task], grid_shape, scenario: str,
                output: Matrix, nb: int) -> None:
        lib = self.library
        if self.runtime.options.streaming:
            # Streaming intake: the builder generator is handed to the
            # runtime unconsumed; owner hints are applied per task as it is
            # pulled, so no task of the call is materialized ahead of its
            # submission instant.
            def hinted() -> Iterable[Task]:
                for task in tasks:
                    hint = lib._owner_hint(task, grid_shape)
                    if hint is not None:
                        task.owner_hint = hint
                    yield task

            self.runtime.submit_stream(hinted())
        else:
            for task in tasks:
                hint = lib._owner_hint(task, grid_shape)
                if hint is not None:
                    task.owner_hint = hint
                self.runtime.submit(task)
        self._calls += 1
        self._outputs.append((output, nb))
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

    def gemm_async(self, alpha, a, b, beta, c, nb,
                   transa: Trans = Trans.NOTRANS, transb: Trans = Trans.NOTRANS,
                   scenario: str = "host") -> None:
        self.library._check_routine("gemm", (a.m, a.n, b.n, c.m, c.n))
        pa, pb, pc = self._prepare([a, b, c], nb, scenario)
        tasks = build_gemm(alpha, pa, pb, beta, pc, transa, transb)
        self._submit("gemm", tasks, pc.shape, scenario, c, nb)

    def symm_async(self, side, uplo, alpha, a, b, beta, c, nb, scenario="host") -> None:
        self.library._check_routine("symm", (a.m, c.m, c.n))
        pa, pb, pc = self._prepare([a, b, c], nb, scenario)
        tasks = build_symm(side, uplo, alpha, pa, pb, beta, pc)
        self._submit("symm", tasks, pc.shape, scenario, c, nb)

    def syrk_async(self, uplo, trans, alpha, a, beta, c, nb, scenario="host") -> None:
        self.library._check_routine("syrk", (a.m, a.n, c.m))
        pa, pc = self._prepare([a, c], nb, scenario)
        tasks = build_syrk(uplo, trans, alpha, pa, beta, pc)
        self._submit("syrk", tasks, pc.shape, scenario, c, nb)

    def syr2k_async(self, uplo, trans, alpha, a, b, beta, c, nb, scenario="host") -> None:
        self.library._check_routine("syr2k", (a.m, a.n, c.m))
        pa, pb, pc = self._prepare([a, b, c], nb, scenario)
        tasks = build_syr2k(uplo, trans, alpha, pa, pb, beta, pc)
        self._submit("syr2k", tasks, pc.shape, scenario, c, nb)

    def trmm_async(self, side, uplo, transa, diag, alpha, a, b, nb, scenario="host") -> None:
        self.library._check_routine("trmm", (a.m, b.m, b.n))
        pa, pb = self._prepare([a, b], nb, scenario)
        tasks = build_trmm(side, uplo, transa, diag, alpha, pa, pb)
        self._submit("trmm", tasks, pb.shape, scenario, b, nb)

    def trsm_async(self, side, uplo, transa, diag, alpha, a, b, nb, scenario="host") -> None:
        self.library._check_routine("trsm", (a.m, b.m, b.n))
        pa, pb = self._prepare([a, b], nb, scenario)
        tasks = build_trsm(side, uplo, transa, diag, alpha, pa, pb)
        self._submit("trsm", tasks, pb.shape, scenario, b, nb)

    def hemm_async(self, side, uplo, alpha, a, b, beta, c, nb, scenario="host") -> None:
        self.library._check_routine("hemm", (a.m, c.m, c.n))
        pa, pb, pc = self._prepare([a, b, c], nb, scenario)
        tasks = build_hemm(side, uplo, alpha, pa, pb, beta, pc)
        self._submit("hemm", tasks, pc.shape, scenario, c, nb)

    def herk_async(self, uplo, trans, alpha, a, beta, c, nb, scenario="host") -> None:
        self.library._check_routine("herk", (a.m, a.n, c.m))
        pa, pc = self._prepare([a, c], nb, scenario)
        tasks = build_herk(uplo, trans, alpha, pa, beta, pc)
        self._submit("herk", tasks, pc.shape, scenario, c, nb)

    def her2k_async(self, uplo, trans, alpha, a, b, beta, c, nb, scenario="host") -> None:
        self.library._check_routine("her2k", (a.m, a.n, c.m))
        pa, pb, pc = self._prepare([a, b, c], nb, scenario)
        tasks = build_her2k(uplo, trans, alpha, pa, pb, beta, pc)
        self._submit("her2k", tasks, pc.shape, scenario, c, nb)

    def memory_coherent_async(self, matrix: Matrix, nb: int | None = None) -> None:
        self.runtime.memory_coherent_async(matrix, nb)

    def sync(self) -> float:
        graph = self.runtime.executor.graph
        if graph.retain_tasks:
            graph.critical_path_priorities()
        return self.runtime.sync()

    @property
    def extra_host_seconds(self) -> float:
        """Serial host time charged so far (layout conversions)."""
        return self._extra_host_seconds

    # ---------------------------------------------------------- measurement

    def finish(self, routine: str, m: int, n: int, k: int, nb: int,
               scenario: str, output: Matrix) -> LibraryResult:
        """Flush the result home (host scenario), sync, and build the result."""
        lib = self.library
        if scenario == "host" and not lib.synchronous:
            self.runtime.memory_coherent_async(output, nb)
        seconds = self.sync()
        seconds += self._extra_host_seconds
        flops = fl.routine_flops(routine, m, n, k)
        return LibraryResult(
            library=lib.name,
            routine=routine,
            m=m,
            n=n,
            k=k,
            nb=nb,
            seconds=seconds,
            flops=flops,
            scenario=scenario,
            runtime=self.runtime if self.keep_runtime else None,
        )
