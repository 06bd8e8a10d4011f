"""cuBLAS-XT (NVBLAS) — the synchronous drop-in reference library.

Documented behaviour the model reproduces (paper §II, §IV-F):

* synchronous invocation: results are copied back to the host and device
  replicas dropped after every call ("data transferred back and forth after
  each call to BLAS");
* output blocks dealt to GPUs cyclically, input panels streamed from the host
  for each block — no device-to-device transfers (HOST_ONLY policy);
* input operands and kernels enqueued into the same streams, so per-stream
  copies and kernels do not overlap (``overlap=False``); pipelining across the
  two streams still hides part of the latency.
"""

from __future__ import annotations

from repro.libraries.base import SimulatedLibrary
from repro.memory.cache import LruPolicy
from repro.runtime.api import RuntimeOptions
from repro.runtime.policies import SourcePolicy
from repro.runtime.task import Task


class CublasXt(SimulatedLibrary):
    name = "cuBLAS-XT"
    synchronous = True

    def runtime_options(self) -> RuntimeOptions:
        return RuntimeOptions(
            source_policy=SourcePolicy.HOST_ONLY,
            scheduler="owner-computes",
            eviction=LruPolicy.name,
            task_overhead=0.5e-6,  # no DAG construction, just block loops
            pipeline_window=3,
            overlap=False,  # operands and kernels share each stream (§II-B)
        )

    def _owner_hint(self, task: Task, grid_shape: tuple[int, int]) -> int | None:
        """Deal output blocks to GPUs cyclically in row-major block order."""
        out = task.output_tile
        _, nt = grid_shape
        return (out.i * nt + out.j) % self.platform.num_gpus
