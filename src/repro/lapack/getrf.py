"""Tiled unpivoted LU factorization (GETRF-nopiv) and the GESV solver.

The classic right-looking tile LU (PLASMA's ``dgetrf_nopiv``):

    for each pivot step k:
        GETRF  A[k,k]                      — unpivoted LU of the pivot tile
        TRSM   A[k,j] := L[k,k]⁻¹ A[k,j]   — row panel  (left, lower, unit)
        TRSM   A[i,k] := A[i,k] U[k,k]⁻¹   — column panel (right, upper)
        GEMM   A[i,j] -= A[i,k] A[k,j]     — trailing update

Pivoting is omitted, as in PLASMA's nopiv variant — appropriate for
diagonally dominant systems (our tests build such inputs).  ``build_gesv``
composes the factorization with the two triangular solves; all three stages
overlap through the dataflow dependencies.
"""

from __future__ import annotations

from typing import Iterator

from repro.blas import flops as fl
from repro.blas.kernels import k_gemm, k_getrf_nopiv, k_trsm
from repro.blas.params import Diag, Side, Trans, Uplo
from repro.blas.tiled import build_trsm
from repro.blas.tiled.common import make_task, require
from repro.memory.layout import TilePartition
from repro.runtime.task import Task


def build_getrf_nopiv(a: TilePartition) -> Iterator[Task]:
    """Yield the tiled unpivoted-LU task graph in submission order."""
    mt, nt = a.shape
    require(mt == nt, f"getrf: matrix tile grid must be square, got {a.shape}")
    # One kernel per task kind, built once per call and shared by its tasks.
    factor = k_getrf_nopiv()
    row_solve = k_trsm(Side.LEFT, Uplo.LOWER, Trans.NOTRANS, Diag.UNIT, 1.0)
    col_solve = k_trsm(Side.RIGHT, Uplo.UPPER, Trans.NOTRANS, Diag.NONUNIT, 1.0)
    update = k_gemm(-1.0, 1.0, Trans.NOTRANS, Trans.NOTRANS)
    for k in range(nt):
        pivot = a[(k, k)]
        yield make_task(
            "getrf",
            reads=[],
            rw=pivot,
            flops=fl.getrf_flops(pivot.m, pivot.n),
            kernel=factor,
            dims=(pivot.m, pivot.n),
        )
        for j in range(k + 1, nt):
            tile = a[(k, j)]
            yield make_task(
                "trsm",
                reads=[pivot],
                rw=tile,
                flops=fl.trsm_flops(True, tile.m, tile.n),
                kernel=row_solve,
                dims=(tile.m, tile.n, pivot.m),
            )
        for i in range(k + 1, nt):
            tile = a[(i, k)]
            yield make_task(
                "trsm",
                reads=[pivot],
                rw=tile,
                flops=fl.trsm_flops(False, tile.m, tile.n),
                kernel=col_solve,
                dims=(tile.m, tile.n, pivot.n),
            )
        for i in range(k + 1, nt):
            for j in range(k + 1, nt):
                target = a[(i, j)]
                left, right = a[(i, k)], a[(k, j)]
                yield make_task(
                    "gemm",
                    reads=[left, right],
                    rw=target,
                    flops=fl.gemm_flops(target.m, target.n, left.n),
                    kernel=update,
                    dims=(target.m, target.n, left.n),
                )


def build_gesv_nopiv(a: TilePartition, b: TilePartition) -> Iterator[Task]:
    """Solve ``A X = B`` by unpivoted LU: factor, then L- and U-solves."""
    yield from build_getrf_nopiv(a)
    yield from build_trsm(Side.LEFT, Uplo.LOWER, Trans.NOTRANS, Diag.UNIT, 1.0, a, b)
    yield from build_trsm(Side.LEFT, Uplo.UPPER, Trans.NOTRANS, Diag.NONUNIT, 1.0, a, b)


def getrf_total_flops(n: int) -> float:
    """Whole-factorization flop count: 2n³/3."""
    return 2.0 * n**3 / 3.0
