"""Chameleon over StarPU, in both matrix-layout variants (paper §IV-A/D).

* ``ChameleonTile`` — matrices in the internal tile layout.  StarPU DMDAS
  scheduler (as the paper configures), 2 concurrent kernels per GPU
  (``STARPU_NWORKER_PER_CUDA=2``), StarPU's heavier per-task cost.  Source
  selection uses StarPU's calibrated bus model (equivalent to the TOPOLOGY
  policy) but no optimistic in-flight forwarding — XKBLAS's remaining edge.
  The strongest baseline at large N: DMDAS balance beats XKBLAS's work
  stealing on SYRK/SYR2K (§IV-D/E).
* ``ChameleonLapack`` — the LAPACK-layout interface: identical engine plus the
  host-side layout conversion of every operand on entry and of the result on
  exit, the cost that puts it last in Fig. 5.

The composition benchmark (Figs. 8/9) drives Chameleon with a barrier between
routine calls, reproducing the synchronization gaps of the paper's Gantt
chart.
"""

from __future__ import annotations

from repro import config
from repro.libraries.base import SimulatedLibrary
from repro.memory.cache import LruPolicy
from repro.memory.layout import layout_conversion_time
from repro.memory.matrix import Matrix
from repro.runtime.api import RuntimeOptions
from repro.runtime.policies import SourcePolicy


class ChameleonTile(SimulatedLibrary):
    name = "Chameleon Tile"
    barrier_between_calls = True

    def runtime_options(self) -> RuntimeOptions:
        return RuntimeOptions(
            source_policy=SourcePolicy.TOPOLOGY,
            scheduler="starpu-dmdas",
            eviction=LruPolicy.name,
            task_overhead=config.STARPU_TASK_OVERHEAD,
            pop_overhead=2e-6,
            pipeline_window=4,  # STARPU_NWORKER_PER_CUDA=2 (§IV-A)
            overlap=True,
        )


class ChameleonLapack(ChameleonTile):
    name = "Chameleon LAPACK"

    def _call_conversion_cost(self, operands: list[Matrix], output: Matrix) -> float:
        """Convert operands to tile layout on entry, result back on exit.

        The output matrix is converted twice (it is read with ``beta`` and
        written).  These conversions are serial host work (§IV-D: "the
        penalty, on the host, to convert operands and result to/from tile
        matrix representation").
        """
        cost = sum(layout_conversion_time(m.nbytes) for m in operands)
        cost += 2 * layout_conversion_time(output.nbytes)
        return cost
