"""Tiled SYRK/HERK: triangle-only rank-k update ``C = alpha op(A) op(A)ᵀ + beta C``.

Diagonal tiles get SYRK kernels; off-diagonal tiles of the stored triangle get
GEMM kernels over panel pairs (``A[i, l] · A[j, l]ᵀ`` for NOTRANS).  Only the
``uplo`` triangle of C is ever touched, matching BLAS semantics.
"""

from __future__ import annotations

from typing import Iterator

from repro.blas import flops as fl
from repro.blas.kernels import k_gemm, k_syrk
from repro.blas.params import Trans, Uplo
from repro.blas.tiled.common import check_same_nb, make_task, require
from repro.memory.layout import TilePartition
from repro.runtime.task import Task


def build_syrk(
    uplo: Uplo,
    trans: Trans,
    alpha: float,
    a: TilePartition,
    beta: float,
    c: TilePartition,
    hermitian: bool = False,
) -> Iterator[Task]:
    """Yield the SYRK (or HERK) task graph in submission order."""
    check_same_nb(a, c)
    nt, nt2 = c.shape
    require(nt == nt2, f"syrk: C tile grid must be square, got {c.shape}")
    amt, ant = a.shape
    kt = ant if trans is Trans.NOTRANS else amt
    op_rows = amt if trans is Trans.NOTRANS else ant
    require(op_rows == nt, f"syrk: op(A) tile rows {op_rows} != C order {nt}")
    name = "herk" if hermitian else "syrk"
    notrans = trans is Trans.NOTRANS
    trans_b = Trans.CONJTRANS if hermitian else Trans.TRANS

    def a_tile(i: int, l: int):
        return a[(i, l)] if notrans else a[(l, i)]

    # Each kernel has a chain-head variant (index 0, applies beta) and an
    # accumulating one (index 1, beta 1.0), built once per call and shared by
    # every task of that variant.  Off-diagonal GEMMs compute
    # A[i,l] A[j,l]ᵀ (NOTRANS) or A[l,i]ᵀ A[l,j] (op(A) = Aᵀ).
    betas = (beta, 1.0)
    diag_k = [k_syrk(uplo, trans, alpha, lbeta, hermitian) for lbeta in betas]
    if notrans:
        off_k = [k_gemm(alpha, lbeta, Trans.NOTRANS, trans_b) for lbeta in betas]
    else:
        off_k = [k_gemm(alpha, lbeta, trans_b, Trans.NOTRANS) for lbeta in betas]

    for i in range(nt):
        # Diagonal tile: a chain of SYRK kernels.
        ctile = c[(i, i)]
        for l in range(kt):
            atile = a_tile(i, l)
            kb = atile.n if notrans else atile.m
            yield make_task(
                name,
                reads=[atile],
                rw=ctile,
                flops=fl.syrk_flops(ctile.n, kb),
                kernel=diag_k[min(l, 1)],
                dims=(ctile.m, ctile.n, kb),
            )
        # Off-diagonal tiles of the stored triangle: GEMM chains.
        js = range(i) if uplo is Uplo.LOWER else range(i + 1, nt)
        for j in js:
            ctile = c[(i, j)]
            for l in range(kt):
                ail, ajl = a_tile(i, l), a_tile(j, l)
                kb = ail.n if notrans else ail.m
                yield make_task(
                    "gemm",
                    reads=[ail, ajl],
                    rw=ctile,
                    flops=fl.gemm_flops(ctile.m, ctile.n, kb),
                    kernel=off_k[min(l, 1)],
                    dims=(ctile.m, ctile.n, kb),
                )


def build_herk(
    uplo: Uplo,
    trans: Trans,
    alpha: float,
    a: TilePartition,
    beta: float,
    c: TilePartition,
) -> Iterator[Task]:
    """HERK = Hermitian SYRK (``op(A) op(A)ᴴ``)."""
    return build_syrk(uplo, trans, alpha, a, beta, c, hermitian=True)
