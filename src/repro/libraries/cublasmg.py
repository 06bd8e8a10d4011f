"""cuBLAS-MG — NVIDIA's early-access multi-GPU GEMM (paper §II-A).

"A state-of-the-art matrix-matrix multiplication library in which each matrix
can be distributed over multiple devices in a 2D block cyclic strategy."
GEMM-only (the paper's Fig. 5 has cuBLAS-MG points only on GEMM), static 2D
block-cyclic ownership of C, peer transfers allowed but without topology
ranking.  The paper measures XKBLAS only ~1.13× faster — cuBLAS-MG is the
strongest baseline at moderate sizes.
"""

from __future__ import annotations

from repro.libraries.base import SimulatedLibrary
from repro.memory.cache import LruPolicy
from repro.runtime.api import RuntimeOptions
from repro.runtime.policies import SourcePolicy
from repro.runtime.task import Task


class CublasMg(SimulatedLibrary):
    name = "cuBLAS-MG"
    routines = ("gemm",)
    # The EA library distributes operands, computes, then collects the
    # result synchronously per call — no cross-call retention, and the
    # distribution phase is a barrier before any kernel runs.
    synchronous = True
    predistribute = True

    def runtime_options(self) -> RuntimeOptions:
        return RuntimeOptions(
            source_policy=SourcePolicy.ANY_VALID,
            scheduler="owner-computes",
            eviction=LruPolicy.name,
            task_overhead=0.8e-6,
            kernel_streams=2,
            overlap=True,
        )

    def _owner_hint(self, task: Task, grid_shape: tuple[int, int]) -> int | None:
        """2D block-cyclic ownership of the output tile."""
        out = task.output_tile
        return self.distribution.owner(out.i, out.j)
