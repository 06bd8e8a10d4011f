"""Tiled BLAS-3 task-graph builders.

Each ``build_*`` function lazily yields :class:`~repro.runtime.task.Task`
objects in a valid submission order; the caller (a simulated library) submits
them to a runtime, whose dataflow builder derives the DAG.  Because builders
are generators, a graph is never materialized unless someone asks: feeding
one to :meth:`Runtime.submit_stream` keeps peak task residency bounded by the
active window, while ``list(build_*(...))`` gives callers that need the whole
DAG (e.g. critical-path priority passes) the all-at-once list.  The
algorithms are the PLASMA/Chameleon tile algorithms restated over LAPACK
sub-matrix views — the paper's §III states XKBLAS's numerical algorithms
"have the same behavior of those from PLASMA or Chameleon".
"""

from repro.blas.tiled.gemm import build_gemm
from repro.blas.tiled.symm import build_hemm, build_symm
from repro.blas.tiled.syr2k import build_her2k, build_syr2k
from repro.blas.tiled.syrk import build_herk, build_syrk
from repro.blas.tiled.trmm import build_trmm
from repro.blas.tiled.trsm import build_trsm

__all__ = [
    "build_gemm",
    "build_hemm",
    "build_her2k",
    "build_herk",
    "build_symm",
    "build_syr2k",
    "build_syrk",
    "build_trmm",
    "build_trsm",
]
