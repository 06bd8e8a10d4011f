"""Tiled SYR2K/HER2K: ``C = alpha op(A) op(B)ᵀ + alpha op(B) op(A)ᵀ + beta C``.

Diagonal tiles get SYR2K kernels (both terms at once); each off-diagonal tile
of the stored triangle gets two GEMM chains per panel index — this doubled
communication pattern is what makes SYR2K the paper's most topology-sensitive
routine (Table II: −53.5% without the topology-aware heuristic).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.blas import flops as fl
from repro.blas.kernels import k_gemm, k_syr2k
from repro.blas.params import Trans, Uplo
from repro.blas.tiled.common import check_same_nb, make_task, require
from repro.memory.layout import TilePartition
from repro.runtime.task import Task


def build_syr2k(
    uplo: Uplo,
    trans: Trans,
    alpha: float,
    a: TilePartition,
    b: TilePartition,
    beta: float,
    c: TilePartition,
    hermitian: bool = False,
) -> Iterator[Task]:
    """Yield the SYR2K (or HER2K) task graph in submission order."""
    check_same_nb(a, b, c)
    nt, nt2 = c.shape
    require(nt == nt2, f"syr2k: C tile grid must be square, got {c.shape}")
    require(a.shape == b.shape, f"syr2k: A {a.shape} and B {b.shape} differ")
    amt, ant = a.shape
    kt = ant if trans is Trans.NOTRANS else amt
    op_rows = amt if trans is Trans.NOTRANS else ant
    require(op_rows == nt, f"syr2k: op(A) tile rows {op_rows} != C order {nt}")
    name = "her2k" if hermitian else "syr2k"
    notrans = trans is Trans.NOTRANS

    def tile_of(part: TilePartition, i: int, l: int):
        return part[(i, l)] if notrans else part[(l, i)]

    # Built once per call and shared by every task of the variant: the
    # diagonal kernel and each off-diagonal tile's first GEMM have a
    # chain-head variant (index 0, applies beta) and an accumulating one
    # (index 1, beta 1.0); the second GEMM always accumulates.
    betas = (beta, 1.0)
    second_alpha = np.conj(alpha) if hermitian else alpha
    mirror = Trans.CONJTRANS if hermitian else Trans.TRANS
    ta, tb = (Trans.NOTRANS, mirror) if notrans else (mirror, Trans.NOTRANS)
    diag_k = [k_syr2k(uplo, trans, alpha, lbeta, hermitian) for lbeta in betas]
    first_k = [k_gemm(alpha, lbeta, ta, tb) for lbeta in betas]
    second_k = k_gemm(second_alpha, 1.0, ta, tb)

    for i in range(nt):
        ctile = c[(i, i)]
        for l in range(kt):
            atile, btile = tile_of(a, i, l), tile_of(b, i, l)
            kb = atile.n if notrans else atile.m
            yield make_task(
                name,
                reads=[atile, btile],
                rw=ctile,
                flops=fl.syr2k_flops(ctile.n, kb),
                kernel=diag_k[min(l, 1)],
                dims=(ctile.m, ctile.n, kb),
            )
        js = range(i) if uplo is Uplo.LOWER else range(i + 1, nt)
        for j in js:
            ctile = c[(i, j)]
            for l in range(kt):
                ail, ajl = tile_of(a, i, l), tile_of(a, j, l)
                bil, bjl = tile_of(b, i, l), tile_of(b, j, l)
                kb = ail.n if notrans else ail.m
                gf = fl.gemm_flops(ctile.m, ctile.n, kb)
                # NOTRANS: C[i,j] += alpha A[i,l] B[j,l]ᵀ, then
                #          += alpha B[i,l] A[j,l]ᵀ;
                # else:    C[i,j] += alpha A[l,i]ᵀ B[l,j], then
                #          += alpha B[l,i]ᵀ A[l,j].
                yield make_task(
                    "gemm",
                    reads=[ail, bjl],
                    rw=ctile,
                    flops=gf,
                    kernel=first_k[min(l, 1)],
                    dims=(ctile.m, ctile.n, kb),
                )
                yield make_task(
                    "gemm",
                    reads=[bil, ajl],
                    rw=ctile,
                    flops=gf,
                    kernel=second_k,
                    dims=(ctile.m, ctile.n, kb),
                )


def build_her2k(
    uplo: Uplo,
    trans: Trans,
    alpha: float,
    a: TilePartition,
    b: TilePartition,
    beta: float,
    c: TilePartition,
) -> Iterator[Task]:
    """HER2K = Hermitian SYR2K."""
    return build_syr2k(uplo, trans, alpha, a, b, beta, c, hermitian=True)
