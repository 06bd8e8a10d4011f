"""Tiled LAUUM: the triangular product ``LᴴL`` (lower) or ``UUᴴ`` (upper).

The PLASMA/Chameleon in-place tile algorithm (lower case shown; the upper
case is the conjugate mirror).  Outer loop over block rows ``m``:

    for n < m:
        A[n,n] += A[m,n]ᵀ A[m,n]          (SYRK, accumulating)
        for n < j < m:
            A[j,n] += A[m,j]ᵀ A[m,n]      (GEMM)
        A[m,n] := A[m,m]ᵀ A[m,n]          (TRMM, left, trans)
    A[m,m] := A[m,m]ᵀ A[m,m]              (LAUUM tile)

Each original ``L`` block is consumed exactly once before being overwritten;
the order above is a valid sequential schedule, so submitted as tasks it
yields the correct dataflow.
"""

from __future__ import annotations

from typing import Iterator

from repro.blas import flops as fl
from repro.blas.kernels import k_gemm, k_lauum, k_syrk, k_trmm
from repro.blas.params import Diag, Side, Trans, Uplo
from repro.blas.tiled.common import make_task, require
from repro.memory.layout import TilePartition
from repro.runtime.task import Task


def build_lauum(uplo: Uplo, a: TilePartition) -> Iterator[Task]:
    """Yield the tiled LAUUM task graph in submission order."""
    nt, nt2 = a.shape
    require(nt == nt2, f"lauum: matrix tile grid must be square, got {a.shape}")
    lower = uplo is Uplo.LOWER
    # One kernel per task kind, built once per call and shared by its tasks.
    # A[n,n] += panelᵀ panel (lower) / panel panelᵀ (upper)
    rank_k = k_syrk(uplo, Trans.TRANS if lower else Trans.NOTRANS, 1.0, 1.0)
    if lower:
        update = k_gemm(1.0, 1.0, Trans.TRANS, Trans.NOTRANS)
    else:
        update = k_gemm(1.0, 1.0, Trans.NOTRANS, Trans.TRANS)
    # panel := tri(A[m,m])ᵀ panel (lower) / panel tri(A[m,m])ᵀ (upper)
    scale = k_trmm(Side.LEFT if lower else Side.RIGHT, uplo, Trans.TRANS, Diag.NONUNIT, 1.0)
    square = k_lauum(uplo)

    for m in range(nt):
        diag_m = a[(m, m)]
        inner = range(m) if lower else range(m)
        for n in inner:
            panel = a[(m, n)] if lower else a[(n, m)]
            diag_n = a[(n, n)]
            yield make_task(
                "syrk",
                reads=[panel],
                rw=diag_n,
                flops=fl.syrk_flops(diag_n.n, panel.m if lower else panel.n),
                kernel=rank_k,
                dims=(diag_n.m, diag_n.n, panel.m if lower else panel.n),
            )
            for j in range(n + 1, m):
                if lower:
                    # A[j,n] += A[m,j]ᵀ A[m,n]
                    target = a[(j, n)]
                    left, right = a[(m, j)], panel
                    kb = left.m
                else:
                    # A[n,j] += A[n,m] A[j,m]ᵀ
                    target = a[(n, j)]
                    left, right = panel, a[(j, m)]
                    kb = right.n
                yield make_task(
                    "gemm",
                    reads=[left, right],
                    rw=target,
                    flops=fl.gemm_flops(target.m, target.n, kb),
                    kernel=update,
                    dims=(target.m, target.n, kb),
                )
            yield make_task(
                "trmm",
                reads=[diag_m],
                rw=panel,
                flops=fl.trmm_flops(lower, panel.m, panel.n),
                kernel=scale,
                dims=(panel.m, panel.n, diag_m.m),
            )
        yield make_task(
            "lauum",
            reads=[],
            rw=diag_m,
            flops=fl.lauum_flops(diag_m.m),
            kernel=square,
            dims=(diag_m.m, diag_m.n),
        )
