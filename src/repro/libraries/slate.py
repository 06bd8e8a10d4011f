"""SLATE — exascale-oriented, block outer-product over batched GEMM.

Documented design the model reproduces (paper §II-B, §IV-D): SLATE organizes
accelerator portability "through the block outer-product pattern ... based on
batched GEMM", whose implementation "was unable to exploit the capability of 8
GPUs to directly exchange data through the high speed NVLink network.
Consequently, all data transfers between CPUs and GPUs pass through the 4 PCIe
16x Gen3 buses", the DGX-1 bottleneck.

Model: HOST_ONLY transfers (no P2P), 2D block-cyclic static ownership, one
batched kernel lane per device (a lookahead window of 2 tasks in flight) with
copies and compute overlapping only across the copy/kernel engines, and coarse
per-panel task granularity.
"""

from __future__ import annotations

from repro.libraries.base import SimulatedLibrary
from repro.memory.cache import LruPolicy
from repro.runtime.api import RuntimeOptions
from repro.runtime.policies import SourcePolicy
from repro.runtime.task import Task


class Slate(SimulatedLibrary):
    name = "Slate"

    def runtime_options(self) -> RuntimeOptions:
        return RuntimeOptions(
            source_policy=SourcePolicy.HOST_ONLY,
            scheduler="owner-computes",
            eviction=LruPolicy.name,
            task_overhead=3e-6,
            pipeline_window=2,  # one batched-GEMM lane per device
            overlap=False,
            retain_inputs=False,  # panels are batched workspaces, not a cache
        )

    def _owner_hint(self, task: Task, grid_shape: tuple[int, int]) -> int | None:
        """2D block-cyclic ownership of the output tile."""
        out = task.output_tile
        return self.distribution.owner(out.i, out.j)
