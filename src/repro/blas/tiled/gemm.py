"""Tiled GEMM: ``C = alpha op(A) op(B) + beta C``.

The canonical PLASMA tile algorithm: for every output tile ``C[i, j]`` a chain
of ``kt`` GEMM tasks accumulates the panel products sequentially (the chain on
``C[i, j]`` carries the dependency; the owner-computes scheduler therefore
keeps each chain on one GPU while different ``(i, j)`` chains parallelize).
"""

from __future__ import annotations

from typing import Iterator

from repro.blas import flops as fl
from repro.blas.kernels import k_gemm
from repro.blas.params import Trans
from repro.blas.tiled.common import check_same_nb, require
from repro.memory.layout import TilePartition
from repro.runtime.task import Task
from repro.topology.device import characteristic_dim


def build_gemm(
    alpha: float,
    a: TilePartition,
    b: TilePartition,
    beta: float,
    c: TilePartition,
    transa: Trans = Trans.NOTRANS,
    transb: Trans = Trans.NOTRANS,
) -> Iterator[Task]:
    """Yield the GEMM task graph in submission order."""
    check_same_nb(a, b, c)
    mt, nt = c.shape
    amt, ant = a.shape
    kt = ant if transa is Trans.NOTRANS else amt
    op_a_rows = amt if transa is Trans.NOTRANS else ant
    bmt, bnt = b.shape
    op_b_rows = bmt if transb is Trans.NOTRANS else bnt
    op_b_cols = bnt if transb is Trans.NOTRANS else bmt
    require(op_a_rows == mt, f"gemm: op(A) tile rows {op_a_rows} != C rows {mt}")
    require(op_b_rows == kt, f"gemm: op(B) tile rows {op_b_rows} != inner {kt}")
    require(op_b_cols == nt, f"gemm: op(B) tile cols {op_b_cols} != C cols {nt}")

    # Every task of the graph uses one of two kernel variants (the chain head
    # applies beta, the accumulators use 1.0) and one of a handful of tile
    # shapes.  The per-task body is the submission-phase hot loop of the
    # macro benchmark, so everything reusable is staged up front: the kernel
    # closures, the interned read accesses of every op(A) row / op(B) column
    # (with the inner dimension of each A tile), and a fused
    # (flops, characteristic_dim) memo per distinct shape.  Emission order,
    # access objects and task field values are identical to routing each
    # task through :func:`make_task`.
    k_head = k_gemm(alpha, beta, transa, transb)
    k_acc = k_gemm(alpha, 1.0, transa, transb)
    # With beta == 0 the first task of the chain overwrites C: no need to
    # read (or transfer) the old tile, like real GEMMs.
    head_write_only = beta == 0.0
    a_notrans = transa is Trans.NOTRANS
    b_notrans = transb is Trans.NOTRANS
    regularity = fl.KERNEL_REGULARITY.get("gemm", 1.0)
    shape_cache: dict[tuple[int, int, int], tuple[float, int]] = {}
    a_accs = []
    for i in range(mt):
        row = a.row(i) if a_notrans else a.col(i)
        a_accs.append([(t.read_access, t.n if a_notrans else t.m) for t in row])
    for j in range(nt):
        b_accs = [t.read_access for t in (b.col(j) if b_notrans else b.row(j))]
        for i in range(mt):
            ctile = c[(i, j)]
            cm = ctile.m
            cn = ctile.n
            c_rw = ctile.rw_access
            c_head = ctile.write_access if head_write_only else c_rw
            a_row = a_accs[i]
            for l in range(kt):
                a_acc, kb = a_row[l]
                dims = (cm, cn, kb)
                fd = shape_cache.get(dims)
                if fd is None:
                    fd = shape_cache[dims] = (
                        fl.gemm_flops(cm, cn, kb),
                        characteristic_dim(cm, cn, kb),
                    )
                if l:
                    yield Task(
                        "gemm", [a_acc, b_accs[l], c_rw], fd[0], fd[1],
                        k_acc, regularity,
                    )
                else:
                    yield Task(
                        "gemm", [a_acc, b_accs[0], c_head], fd[0], fd[1],
                        k_head, regularity,
                    )
