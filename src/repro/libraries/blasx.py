"""BLASX — the two-level-cache predecessor of the paper's heuristics.

Documented design (paper §II-C, Wang et al. ICS'16): dynamic scheduling with a
software cache organized in two levels "to improve locality of data access to
favor GPU-to-GPU communication".  BLASX predates NVLink ranking: it prefers
*any* device replica over the host but does not order sources by link class —
the gap the paper's topology-aware heuristic closes.

Two fidelity details from §IV-D:

* the public code only contains GEMM ("BLASX public code only contains GEMM
  routines"), so every other routine raises;
* "BLASX DGEMM reports memory allocation errors when running with bigger
  matrices than 45 000" — reproduced with :attr:`max_dimension`.
"""

from __future__ import annotations

from repro.libraries.base import SimulatedLibrary
from repro.memory.cache import Blasx2LevelPolicy
from repro.runtime.api import RuntimeOptions
from repro.runtime.policies import SourcePolicy


class Blasx(SimulatedLibrary):
    name = "BLASX"
    routines = ("gemm",)
    max_dimension = 45_000

    def runtime_options(self) -> RuntimeOptions:
        return RuntimeOptions(
            source_policy=SourcePolicy.ANY_VALID,
            scheduler="xkaapi-locality-ws",
            eviction=Blasx2LevelPolicy.name,
            task_overhead=2.5e-6,
            pipeline_window=4,
            overlap=True,
        )
