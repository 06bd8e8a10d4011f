"""Positive-definite solvers built by composition (POTRS, POSV).

``POTRS`` consumes a Cholesky factor with two triangular solves; ``POSV`` is
the factorization + solve pipeline.  Both are *pure composition*: they reuse
the tiled TRSM builder and the POTRF builder over the same tile partitions, so
when submitted through a single runtime the solve's first TRSM tasks start as
soon as the factor tiles they need are ready — before the factorization has
finished — exactly the §IV-F behaviour the paper measures on TRSM+GEMM.
"""

from __future__ import annotations

from typing import Iterator

from repro.blas.params import Diag, Side, Trans, Uplo
from repro.blas.tiled import build_trsm
from repro.lapack.potrf import build_potrf
from repro.memory.layout import TilePartition
from repro.memory.matrix import Matrix
from repro.runtime.api import Runtime
from repro.runtime.task import Task


def build_potrs(
    uplo: Uplo, a: TilePartition, b: TilePartition
) -> Iterator[Task]:
    """Solve ``A X = B`` given the Cholesky factor stored in ``a``.

    Lower: ``L Lᵀ X = B`` → forward solve with L, then backward with Lᵀ.
    Upper: ``Uᵀ U X = B`` → forward solve with Uᵀ, then backward with U.
    """
    if uplo is Uplo.LOWER:
        yield from build_trsm(Side.LEFT, Uplo.LOWER, Trans.NOTRANS, Diag.NONUNIT, 1.0, a, b)
        yield from build_trsm(Side.LEFT, Uplo.LOWER, Trans.TRANS, Diag.NONUNIT, 1.0, a, b)
    else:
        yield from build_trsm(Side.LEFT, Uplo.UPPER, Trans.TRANS, Diag.NONUNIT, 1.0, a, b)
        yield from build_trsm(Side.LEFT, Uplo.UPPER, Trans.NOTRANS, Diag.NONUNIT, 1.0, a, b)


# ------------------------------------------------------------- async drivers


def potrf_async(runtime: Runtime, uplo: Uplo, a: Matrix, nb: int) -> TilePartition:
    """Submit a tiled Cholesky factorization; returns A's partition."""
    part = runtime.partition(a, nb)
    for task in build_potrf(uplo, part):
        runtime.submit(task)
    return part


def potrs_async(
    runtime: Runtime, uplo: Uplo, a: Matrix, b: Matrix, nb: int
) -> TilePartition:
    """Submit the two composed solves against an (already queued) factor."""
    pa = runtime.partition(a, nb)
    pb = runtime.partition(b, nb)
    for task in build_potrs(uplo, pa, pb):
        runtime.submit(task)
    return pb


def posv_async(
    runtime: Runtime, uplo: Uplo, a: Matrix, b: Matrix, nb: int
) -> TilePartition:
    """Factor + solve in one asynchronous pipeline (``A X = B``, SPD A).

    The solve tasks depend tile-wise on the factorization tasks, so the
    runtime interleaves them; no barrier separates the phases.
    """
    potrf_async(runtime, uplo, a, nb)
    return potrs_async(runtime, uplo, a, b, nb)


def trtri_async(runtime: Runtime, uplo: Uplo, a: Matrix, nb: int) -> TilePartition:
    """Submit an in-place tiled triangular inversion."""
    from repro.blas.params import Diag
    from repro.lapack.trtri import build_trtri

    part = runtime.partition(a, nb)
    for task in build_trtri(uplo, Diag.NONUNIT, part):
        runtime.submit(task)
    return part


def potri_async(runtime: Runtime, uplo: Uplo, a: Matrix, nb: int) -> TilePartition:
    """Submit an in-place SPD inversion of a Cholesky factor (TRTRI+LAUUM)."""
    from repro.lapack.potri import build_potri

    part = runtime.partition(a, nb)
    for task in build_potri(uplo, part):
        runtime.submit(task)
    return part


def gesv_async(runtime: Runtime, a: Matrix, b: Matrix, nb: int) -> TilePartition:
    """Submit an unpivoted LU solve of ``A X = B`` (factor + two solves)."""
    from repro.lapack.getrf import build_gesv_nopiv

    pa = runtime.partition(a, nb)
    pb = runtime.partition(b, nb)
    for task in build_gesv_nopiv(pa, pb):
        runtime.submit(task)
    return pb
