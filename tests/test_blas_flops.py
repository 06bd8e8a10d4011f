"""Tests for flop-count formulas."""

from repro.blas import flops as fl
from repro.blas.params import Side, Trans
from repro.blas.routines import ROUTINES
from repro.memory.matrix import Matrix


def test_gemm_flops():
    assert fl.gemm_flops(10, 20, 30) == 2 * 10 * 20 * 30


def test_symm_flops_sides():
    assert fl.symm_flops(True, 10, 20) == 2 * 10 * 10 * 20
    assert fl.symm_flops(False, 10, 20) == 2 * 10 * 20 * 20


def test_syrk_syr2k_flops():
    assert fl.syrk_flops(10, 5) == 5 * 10 * 11
    assert fl.syr2k_flops(10, 5) == 2 * 5 * 10 * 11
    # syr2k is exactly twice syrk
    assert fl.syr2k_flops(100, 40) == 2 * fl.syrk_flops(100, 40)


def test_trmm_trsm_flops():
    assert fl.trmm_flops(True, 8, 4) == 8 * 8 * 4
    assert fl.trsm_flops(False, 8, 4) == 8 * 4 * 4


def test_routine_table_flops_on_non_square_operands():
    """Each row counts from the written operand's shape, the inner dimension
    through the transpose, and the side as given: a right-side SYMM with
    m != n is ``symm_flops(False, m, n)``."""
    m, n, k = 4, 6, 3
    meta = Matrix.meta
    out = meta(m, n)
    for trans, a in ((Trans.NOTRANS, meta(m, k)), (Trans.TRANS, meta(k, m))):
        assert ROUTINES["gemm"].flops(a=a, c=out, transa=trans) == fl.gemm_flops(m, n, k)
    for trans, a in ((Trans.NOTRANS, meta(n, k)), (Trans.TRANS, meta(k, n))):
        c = meta(n, n)
        for name in ("syrk", "herk"):
            assert ROUTINES[name].flops(trans=trans, a=a, c=c) == fl.syrk_flops(n, k)
        for name in ("syr2k", "her2k"):
            assert ROUTINES[name].flops(trans=trans, a=a, b=a, c=c) == fl.syr2k_flops(n, k)
    for side in (Side.LEFT, Side.RIGHT):
        left = side is Side.LEFT
        a = meta(m, m) if left else meta(n, n)
        for name in ("symm", "hemm"):
            flops = ROUTINES[name].flops(side=side, a=a, b=out, c=out)
            assert flops == fl.symm_flops(left, m, n)
        assert ROUTINES["trmm"].flops(side=side, a=a, b=out) == fl.trmm_flops(left, m, n)
        assert ROUTINES["trsm"].flops(side=side, a=a, b=out) == fl.trsm_flops(left, m, n)


def test_kernel_regularity_table():
    assert fl.KERNEL_REGULARITY["gemm"] == 1.0
    assert fl.KERNEL_REGULARITY["trsm"] < fl.KERNEL_REGULARITY["trmm"] <= 1.0
