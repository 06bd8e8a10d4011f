"""Tiled TRSM: in-place solve ``op(tri(A)) X = alpha B`` (left) or right analogue.

The PLASMA substitution pattern: at each pivot step the diagonal tile solves a
panel, then trailing panels are updated with GEMMs.  ``alpha`` is folded into
the *first* operation touching each tile (the first pivot step's solve and
update kernels), so no separate scaling pass is needed.

TRSM carries real inter-step dependencies (each pivot panel feeds all trailing
updates), which is why it composes so well with a following GEMM in the
paper's Fig. 8 benchmark.
"""

from __future__ import annotations

from typing import Iterator

from repro.blas import flops as fl
from repro.blas.kernels import k_gemm, k_trsm
from repro.blas.params import Diag, Side, Trans, Uplo
from repro.blas.tiled.common import check_same_nb, make_task, require
from repro.memory.layout import TilePartition
from repro.runtime.task import Task


def build_trsm(
    side: Side,
    uplo: Uplo,
    transa: Trans,
    diag: Diag,
    alpha: float,
    a: TilePartition,
    b: TilePartition,
) -> Iterator[Task]:
    """Yield the TRSM task graph in submission order."""
    check_same_nb(a, b)
    mt, nt = b.shape
    order = mt if side is Side.LEFT else nt
    require(a.shape == (order, order), f"trsm: A {a.shape} must be {order}x{order}")
    notrans = transa is Trans.NOTRANS
    # Each kernel has two variants, built once per call and shared by every
    # task of that variant: the first pivot step applies alpha, later steps 1.0.
    first_solve = k_trsm(side, uplo, transa, diag, alpha)
    next_solve = k_trsm(side, uplo, transa, diag, 1.0)
    # The update reads the stored coupling block through ``transa``: A[i,k]
    # when NOTRANS, else its mirror A[k,i] (the right side's column analogue).
    if side is Side.LEFT:
        first_update = k_gemm(-1.0, alpha, transa, Trans.NOTRANS)
        next_update = k_gemm(-1.0, 1.0, transa, Trans.NOTRANS)
    else:
        first_update = k_gemm(-1.0, alpha, Trans.NOTRANS, transa)
        next_update = k_gemm(-1.0, 1.0, Trans.NOTRANS, transa)

    if side is Side.LEFT:
        # forward substitution for lower-N / upper-T, backward otherwise
        forward = (uplo is Uplo.LOWER) == notrans
        pivots = range(mt) if forward else range(mt - 1, -1, -1)
        first = 0 if forward else mt - 1
        for k in pivots:
            solve, update = (
                (first_solve, first_update) if k == first else (next_solve, next_update)
            )
            adiag = a[(k, k)]
            for j in range(nt):
                btile = b[(k, j)]
                yield make_task(
                    "trsm",
                    reads=[adiag],
                    rw=btile,
                    flops=fl.trsm_flops(True, btile.m, btile.n),
                    kernel=solve,
                    dims=(btile.m, btile.n, adiag.n),
                )
            trailing = range(k + 1, mt) if forward else range(k)
            for i in trailing:
                ablock = a[(i, k)] if notrans else a[(k, i)]
                for j in range(nt):
                    btile = b[(i, j)]
                    xtile = b[(k, j)]
                    yield make_task(
                        "gemm",
                        reads=[ablock, xtile],
                        rw=btile,
                        flops=fl.gemm_flops(btile.m, btile.n, xtile.m),
                        kernel=update,
                        dims=(btile.m, btile.n, xtile.m),
                    )
    else:
        # X op(A) = alpha B: backward over columns for lower-N / upper-T
        backward = (uplo is Uplo.LOWER) == notrans
        pivots = range(nt - 1, -1, -1) if backward else range(nt)
        first = nt - 1 if backward else 0
        for k in pivots:
            solve, update = (
                (first_solve, first_update) if k == first else (next_solve, next_update)
            )
            adiag = a[(k, k)]
            for i in range(mt):
                btile = b[(i, k)]
                yield make_task(
                    "trsm",
                    reads=[adiag],
                    rw=btile,
                    flops=fl.trsm_flops(False, btile.m, btile.n),
                    kernel=solve,
                    dims=(btile.m, btile.n, adiag.m),
                )
            trailing = range(k) if backward else range(k + 1, nt)
            for j in trailing:
                ablock = a[(k, j)] if notrans else a[(j, k)]
                for i in range(mt):
                    btile = b[(i, j)]
                    xtile = b[(i, k)]
                    yield make_task(
                        "gemm",
                        reads=[xtile, ablock],
                        rw=btile,
                        flops=fl.gemm_flops(btile.m, btile.n, xtile.n),
                        kernel=update,
                        dims=(btile.m, btile.n, xtile.n),
                    )
