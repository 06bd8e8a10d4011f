"""Tiled TRMM: in-place ``B = alpha op(tri(A)) B`` (left) or right analogue.

Block-rows (left) / block-columns (right) are processed in the order that
keeps the still-needed old values untouched; the write-after-read dependencies
derived by the dataflow builder then serialize exactly the necessary pairs.

Traversal directions (left side; right side is the column mirror):

========  =========  ==========================
uplo      trans      row order (deps on old rows)
========  =========  ==========================
LOWER     NOTRANS    descending (reads k < i)
LOWER     (CONJ)T    ascending  (reads k > i)
UPPER     NOTRANS    ascending  (reads k > i)
UPPER     (CONJ)T    descending (reads k < i)
========  =========  ==========================
"""

from __future__ import annotations

from typing import Iterator

from repro.blas import flops as fl
from repro.blas.kernels import k_gemm, k_trmm
from repro.blas.params import Diag, Side, Trans, Uplo
from repro.blas.tiled.common import check_same_nb, make_task, require
from repro.memory.layout import TilePartition
from repro.runtime.task import Task


def build_trmm(
    side: Side,
    uplo: Uplo,
    transa: Trans,
    diag: Diag,
    alpha: float,
    a: TilePartition,
    b: TilePartition,
) -> Iterator[Task]:
    """Yield the TRMM task graph in submission order."""
    check_same_nb(a, b)
    mt, nt = b.shape
    order = mt if side is Side.LEFT else nt
    require(a.shape == (order, order), f"trmm: A {a.shape} must be {order}x{order}")
    notrans = transa is Trans.NOTRANS
    # One kernel per task kind, built once per call and shared by its tasks.
    scale = k_trmm(side, uplo, transa, diag, alpha)

    if side is Side.LEFT:
        update = k_gemm(alpha, 1.0, transa, Trans.NOTRANS)
        reads_below = (uplo is Uplo.LOWER) == notrans  # deps are k < i
        rows = range(mt - 1, -1, -1) if reads_below else range(mt)
        for i in rows:
            ks = range(i) if reads_below else range(i + 1, mt)
            for j in range(nt):
                btile = b[(i, j)]
                adiag = a[(i, i)]
                yield make_task(
                    "trmm",
                    reads=[adiag],
                    rw=btile,
                    flops=fl.trmm_flops(True, btile.m, btile.n),
                    kernel=scale,
                    dims=(btile.m, btile.n, adiag.n),
                )
                for k in ks:
                    # Stored coupling block: A[i,k] (lower-N / upper-N) or the
                    # mirror A[k,i], read through ``transa`` either way.
                    ablock = a[(i, k)] if notrans else a[(k, i)]
                    yield make_task(
                        "gemm",
                        reads=[ablock, b[(k, j)]],
                        rw=btile,
                        flops=fl.gemm_flops(btile.m, btile.n, b[(k, j)].m),
                        kernel=update,
                        dims=(btile.m, btile.n, b[(k, j)].m),
                    )
    else:
        update = k_gemm(alpha, 1.0, Trans.NOTRANS, transa)
        reads_above = (uplo is Uplo.LOWER) == notrans  # deps are k > j
        cols = range(nt) if reads_above else range(nt - 1, -1, -1)
        for j in cols:
            ks = range(j + 1, nt) if reads_above else range(j)
            for i in range(mt):
                btile = b[(i, j)]
                adiag = a[(j, j)]
                yield make_task(
                    "trmm",
                    reads=[adiag],
                    rw=btile,
                    flops=fl.trmm_flops(False, btile.m, btile.n),
                    kernel=scale,
                    dims=(btile.m, btile.n, adiag.m),
                )
                for k in ks:
                    ablock = a[(k, j)] if notrans else a[(j, k)]
                    yield make_task(
                        "gemm",
                        reads=[b[(i, k)], ablock],
                        rw=btile,
                        flops=fl.gemm_flops(btile.m, btile.n, b[(i, k)].n),
                        kernel=update,
                        dims=(btile.m, btile.n, b[(i, k)].n),
                    )
