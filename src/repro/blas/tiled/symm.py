"""Tiled SYMM/HEMM: ``C = alpha sym(A) B + beta C`` (left) or right analogue.

Off-diagonal blocks of the symmetric operand are read through the stored
triangle: when the needed block lies in the unstored triangle it is accessed
as the transpose (conjugate-transpose for HEMM) of its stored mirror — no
extra storage, matching the LAPACK-layout discipline of XKBLAS.
"""

from __future__ import annotations

from typing import Iterator

from repro.blas import flops as fl
from repro.blas.kernels import k_gemm, k_symm
from repro.blas.params import Side, Trans, Uplo
from repro.blas.tiled.common import check_same_nb, make_task, require
from repro.memory.layout import TilePartition
from repro.runtime.task import Task


def build_symm(
    side: Side,
    uplo: Uplo,
    alpha: float,
    a: TilePartition,
    b: TilePartition,
    beta: float,
    c: TilePartition,
    hermitian: bool = False,
) -> Iterator[Task]:
    """Yield the SYMM (or HEMM) task graph in submission order."""
    check_same_nb(a, b, c)
    mt, nt = c.shape
    require(b.shape == c.shape, f"symm: B {b.shape} and C {c.shape} differ")
    order = mt if side is Side.LEFT else nt
    require(
        a.shape == (order, order),
        f"symm: A {a.shape} must be square of order {order}",
    )
    name = "hemm" if hermitian else "symm"
    mirror_t = Trans.CONJTRANS if hermitian else Trans.TRANS

    def stored(k: int, l: int) -> bool:
        """Is block (k, l) of A in the stored triangle?"""
        return k >= l if uplo is Uplo.LOWER else k <= l

    # Each kernel has a chain-head variant (index 0, applies beta) and an
    # accumulating one (index 1, beta 1.0), built once per call and shared by
    # every task of that variant.
    betas = (beta, 1.0)
    diag_k = [k_symm(side, uplo, alpha, lbeta, hermitian) for lbeta in betas]
    direct_k = [k_gemm(alpha, lbeta, Trans.NOTRANS, Trans.NOTRANS) for lbeta in betas]
    if side is Side.LEFT:
        mirror_k = [k_gemm(alpha, lbeta, mirror_t, Trans.NOTRANS) for lbeta in betas]
    else:
        mirror_k = [k_gemm(alpha, lbeta, Trans.NOTRANS, mirror_t) for lbeta in betas]

    for j in range(nt):
        for i in range(mt):
            ctile = c[(i, j)]
            if side is Side.LEFT:
                # C[i,j] = alpha sum_k sym(A)[i,k] B[k,j] + beta C[i,j]
                for k in range(mt):
                    v = min(k, 1)
                    if k == i:
                        atile = a[(i, i)]
                        yield make_task(
                            name,
                            reads=[atile, b[(k, j)]],
                            rw=ctile,
                            flops=fl.gemm_flops(ctile.m, ctile.n, atile.n),
                            kernel=diag_k[v],
                            dims=(ctile.m, ctile.n, atile.n),
                        )
                    elif stored(i, k):
                        atile = a[(i, k)]
                        yield make_task(
                            "gemm",
                            reads=[atile, b[(k, j)]],
                            rw=ctile,
                            flops=fl.gemm_flops(ctile.m, ctile.n, atile.n),
                            kernel=direct_k[v],
                            dims=(ctile.m, ctile.n, atile.n),
                        )
                    else:  # read through the mirror block (k, i)
                        atile = a[(k, i)]
                        yield make_task(
                            "gemm",
                            reads=[atile, b[(k, j)]],
                            rw=ctile,
                            flops=fl.gemm_flops(ctile.m, ctile.n, atile.m),
                            kernel=mirror_k[v],
                            dims=(ctile.m, ctile.n, atile.m),
                        )
            else:
                # C[i,j] = alpha sum_k B[i,k] sym(A)[k,j] + beta C[i,j]
                for k in range(nt):
                    v = min(k, 1)
                    if k == j:
                        atile = a[(j, j)]
                        yield make_task(
                            name,
                            reads=[atile, b[(i, k)]],
                            rw=ctile,
                            flops=fl.gemm_flops(ctile.m, ctile.n, atile.m),
                            kernel=diag_k[v],
                            dims=(ctile.m, ctile.n, atile.m),
                        )
                    elif stored(k, j):
                        atile = a[(k, j)]
                        yield make_task(
                            "gemm",
                            reads=[b[(i, k)], atile],
                            rw=ctile,
                            flops=fl.gemm_flops(ctile.m, ctile.n, atile.m),
                            kernel=direct_k[v],
                            dims=(ctile.m, ctile.n, atile.m),
                        )
                    else:  # mirror block (j, k), transposed
                        atile = a[(j, k)]
                        yield make_task(
                            "gemm",
                            reads=[b[(i, k)], atile],
                            rw=ctile,
                            flops=fl.gemm_flops(ctile.m, ctile.n, atile.n),
                            kernel=mirror_k[v],
                            dims=(ctile.m, ctile.n, atile.n),
                        )


def build_hemm(
    side: Side,
    uplo: Uplo,
    alpha: float,
    a: TilePartition,
    b: TilePartition,
    beta: float,
    c: TilePartition,
) -> Iterator[Task]:
    """HEMM = Hermitian SYMM."""
    return build_symm(side, uplo, alpha, a, b, beta, c, hermitian=True)
