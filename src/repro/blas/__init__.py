"""Tiled BLAS level-3 algorithms and numeric kernels.

The paper's XKBLAS implements the PLASMA/Chameleon tile algorithms over
LAPACK-layout sub-matrix views (§III).  This subpackage provides:

* :mod:`repro.blas.flops` — standard flop counts per routine and per tile
  kernel (the perf-mode compute model and the GFlop/s denominators);
* :mod:`repro.blas.kernels` — NumPy implementations of the tile kernels with
  BLAS reference semantics (triangle-only updates, unit diagonals...);
* :mod:`repro.blas.tiled` — task-graph builders for GEMM, SYMM, SYR2K, SYRK,
  TRMM, TRSM and the Hermitian variants HEMM, HER2K, HERK (the paper's "9
  standard BLAS subroutines", §IV-D);
* :mod:`repro.blas.routines` — the routine table: per routine its builder,
  matrix operands, default parameters and flop count, which the libraries,
  the benchmark harness and the verifier all call through.
"""

from repro.blas.params import Diag, Side, Trans, Uplo
from repro.blas.routines import ROUTINES, Routine
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

__all__ = [
    "ROUTINES",
    "Diag",
    "Routine",
    "Side",
    "Trans",
    "Uplo",
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
