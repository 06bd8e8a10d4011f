"""LAPACK-level tiled algorithms composed from the BLAS-3 task builders.

The paper's end game is exactly this layer: "Composition is noted to be one of
the key point for reaching high performance in sparse direct solver[s] such
[as] MUMPS" (§IV-F), and XKBLAS ships as a supported multi-GPU backend of
MUMPS (§V).  This subpackage demonstrates that the reproduced runtime composes
across routine *and* factorization boundaries:

* ``POTRF`` / ``POTRS`` / ``POSV`` — Cholesky factorization and SPD solve;
* ``TRTRI`` / ``LAUUM`` / ``POTRI`` — triangular and SPD inversion;
* ``GETRF`` (unpivoted) / ``GESV`` — tile LU and general solve.

All are expressed as task graphs over the same tile partitions as the BLAS-3
routines, so consecutive stages overlap through dataflow dependencies rather
than barriers.
"""

from repro.lapack.getrf import build_getrf_nopiv, build_gesv_nopiv
from repro.lapack.lauum import build_lauum
from repro.lapack.potrf import build_potrf
from repro.lapack.potri import build_potri
from repro.lapack.solve import (
    build_potrs,
    gesv_async,
    posv_async,
    potrf_async,
    potri_async,
    potrs_async,
    trtri_async,
)
from repro.lapack.trtri import build_trtri

__all__ = [
    "build_getrf_nopiv",
    "build_gesv_nopiv",
    "build_lauum",
    "build_potrf",
    "build_potri",
    "build_potrs",
    "build_trtri",
    "gesv_async",
    "posv_async",
    "potrf_async",
    "potri_async",
    "potrs_async",
    "trtri_async",
]
