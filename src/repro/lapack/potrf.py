"""Tiled Cholesky factorization (POTRF).

The canonical right-looking tile algorithm (PLASMA/Chameleon):

for each pivot step k:
    POTRF  A[k,k]                       — factor the diagonal tile
    TRSM   A[i,k]  (i > k)              — panel solves against the pivot
    SYRK   A[i,i] -= A[i,k] A[i,k]ᵀ     — trailing diagonal updates
    GEMM   A[i,j] -= A[i,k] A[j,k]ᵀ     — trailing off-diagonal updates

All dependencies (pivot → panel → trailing, and step k → step k+1) emerge from
the tile access modes — no explicit synchronization, which is what lets the
runtime overlap consecutive pivot steps and any surrounding BLAS calls.

Only the ``uplo`` triangle is stored/updated; the upper variant is the
transposed mirror (``A = Uᵀ U``).
"""

from __future__ import annotations

from typing import Iterator

from repro.blas import flops as fl
from repro.blas.kernels import k_gemm, k_potrf, k_syrk, k_trsm
from repro.blas.params import Diag, Side, Trans, Uplo
from repro.blas.tiled.common import make_task, require
from repro.memory.layout import TilePartition
from repro.runtime.task import Task


def build_potrf(uplo: Uplo, a: TilePartition) -> Iterator[Task]:
    """Yield the tiled Cholesky task graph in submission order."""
    nt, nt2 = a.shape
    require(nt == nt2, f"potrf: matrix tile grid must be square, got {a.shape}")
    require(
        a.matrix.m == a.matrix.n,
        f"potrf: matrix must be square, got {a.matrix.shape}",
    )
    lower = uplo is Uplo.LOWER
    # One kernel per task kind, built once per call and shared by its tasks.
    factor = k_potrf(uplo)
    if lower:
        # A[i,k] := A[i,k] tril(A[k,k])⁻ᵀ ;  A[i,j] -= A[i,k] A[j,k]ᵀ
        solve = k_trsm(Side.RIGHT, Uplo.LOWER, Trans.TRANS, Diag.NONUNIT, 1.0)
        update = k_gemm(-1.0, 1.0, Trans.NOTRANS, Trans.TRANS)
    else:
        # A[k,i] := triu(A[k,k])⁻ᵀ A[k,i] ;  A[i,j] -= A[k,i]ᵀ A[k,j]
        solve = k_trsm(Side.LEFT, Uplo.UPPER, Trans.TRANS, Diag.NONUNIT, 1.0)
        update = k_gemm(-1.0, 1.0, Trans.TRANS, Trans.NOTRANS)
    rank_k = k_syrk(uplo, Trans.NOTRANS if lower else Trans.TRANS, -1.0, 1.0)

    def panel(i: int, k: int):
        """Panel tile below (lower) or right of (upper) pivot k."""
        return a[(i, k)] if lower else a[(k, i)]

    for k in range(nt):
        pivot = a[(k, k)]
        yield make_task(
            "potrf",
            reads=[],
            rw=pivot,
            flops=fl.potrf_flops(pivot.m),
            kernel=factor,
            dims=(pivot.m, pivot.n),
        )
        for i in range(k + 1, nt):
            ptile = panel(i, k)
            yield make_task(
                "trsm",
                reads=[pivot],
                rw=ptile,
                flops=fl.trsm_flops(not lower, ptile.m, ptile.n),
                kernel=solve,
                dims=(ptile.m, ptile.n, pivot.m),
            )
        for i in range(k + 1, nt):
            diag = a[(i, i)]
            ptile = panel(i, k)
            kb = ptile.n if lower else ptile.m
            yield make_task(
                "syrk",
                reads=[ptile],
                rw=diag,
                flops=fl.syrk_flops(diag.n, kb),
                kernel=rank_k,
                dims=(diag.m, diag.n, kb),
            )
            js = range(k + 1, i) if lower else range(i + 1, nt)
            for j in js:
                target = a[(i, j)]
                other = panel(j, k)
                yield make_task(
                    "gemm",
                    reads=[ptile, other],
                    rw=target,
                    flops=fl.gemm_flops(target.m, target.n, kb),
                    kernel=update,
                    dims=(target.m, target.n, kb),
                )


def potrf_total_flops(n: int) -> float:
    """Whole-factorization flop count: n³/3."""
    return n**3 / 3.0
