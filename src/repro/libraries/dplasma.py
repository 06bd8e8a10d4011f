"""DPLASMA over PaRSEC — hierarchical DAG scheduling (paper §II, [17]).

The paper's Fig. 5 shows DPLASMA only on GEMM ("DPLASMA implementation
exploits GPUs with GEMM only") performing close to the best baselines at
moderate sizes.  Model: PaRSEC's parameterized task graph has low per-task
cost and data-aware placement; transfers use device replicas when available
but without link ranking (the hierarchical-DAG work predates the DGX-1
cube-mesh).
"""

from __future__ import annotations

from repro.libraries.base import SimulatedLibrary
from repro.memory.cache import LruPolicy
from repro.runtime.api import RuntimeOptions
from repro.runtime.policies import SourcePolicy


class Dplasma(SimulatedLibrary):
    name = "DPLASMA"
    routines = ("gemm",)

    def runtime_options(self) -> RuntimeOptions:
        return RuntimeOptions(
            source_policy=SourcePolicy.ANY_VALID,
            scheduler="xkaapi-locality-ws",
            eviction=LruPolicy.name,
            task_overhead=2e-6,
            pipeline_window=6,
            overlap=True,
        )
