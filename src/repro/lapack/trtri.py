"""Tiled triangular matrix inversion (TRTRI).

In-place, column-oriented tile algorithm.  For the lower case, block column
``k`` of ``X = L⁻¹`` is built top-down:

    X[k,k] = L[k,k]⁻¹                                  (TRTRI tile)
    for i > k:
        A[i,k] := A[i,k] · X[k,k]                      (TRMM, right)
        A[i,k] += Σ_{k<j<i} L[i,j] · X[j,k]            (GEMM chain)
        A[i,k] := -L[i,i]⁻¹ · A[i,k]                   (TRSM, left, alpha=-1)

Every original ``L[i,j]`` block read lies in a column > k (still untouched),
and every ``X[j,k]`` read was produced earlier in the same column — so the
submission order above is a valid sequential schedule and the dataflow builder
extracts all cross-column parallelism.  The upper case is the mirrored
recursion (rows below become rows above, processed bottom-up).
"""

from __future__ import annotations

from typing import Iterator

from repro.blas import flops as fl
from repro.blas.kernels import k_gemm, k_trmm, k_trsm, k_trtri
from repro.blas.params import Diag, Side, Trans, Uplo
from repro.blas.tiled.common import make_task, require
from repro.memory.layout import TilePartition
from repro.runtime.task import Task


def build_trtri(uplo: Uplo, diag: Diag, a: TilePartition) -> Iterator[Task]:
    """Yield the tiled triangular-inversion task graph in submission order."""
    nt, nt2 = a.shape
    require(nt == nt2, f"trtri: matrix tile grid must be square, got {a.shape}")
    lower = uplo is Uplo.LOWER
    # One kernel per task kind, built once per call and shared by its tasks.
    invert = k_trtri(uplo, diag)
    scale = k_trmm(Side.RIGHT, uplo, Trans.NOTRANS, diag, 1.0)
    update = k_gemm(1.0, 1.0, Trans.NOTRANS, Trans.NOTRANS)
    solve = k_trsm(Side.LEFT, uplo, Trans.NOTRANS, diag, -1.0)

    # Lower: ascending columns (originals still live to the right).
    # Upper: descending columns (originals still live to the left).
    cols = range(nt) if lower else range(nt - 1, -1, -1)
    for k in cols:
        pivot = a[(k, k)]
        yield make_task(
            "trtri",
            reads=[],
            rw=pivot,
            flops=fl.trtri_flops(pivot.m),
            kernel=invert,
            dims=(pivot.m, pivot.n),
        )
        rows = range(k + 1, nt) if lower else range(k - 1, -1, -1)
        for i in rows:
            target = a[(i, k)]
            # A[i,k] := A[i,k] · X[k,k]
            yield make_task(
                "trmm",
                reads=[pivot],
                rw=target,
                flops=fl.trmm_flops(False, target.m, target.n),
                kernel=scale,
                dims=(target.m, target.n, pivot.m),
            )
            js = range(k + 1, i) if lower else range(i + 1, k)
            for j in js:
                block = a[(i, j)]  # original triangular block
                prior = a[(j, k)]  # already-inverted entry of column k
                yield make_task(
                    "gemm",
                    reads=[block, prior],
                    rw=target,
                    flops=fl.gemm_flops(target.m, target.n, prior.m),
                    kernel=update,
                    dims=(target.m, target.n, prior.m),
                )
            diag_i = a[(i, i)]
            yield make_task(
                "trsm",
                reads=[diag_i],
                rw=target,
                flops=fl.trsm_flops(True, target.m, target.n),
                kernel=solve,
                dims=(target.m, target.n, diag_i.m),
            )
