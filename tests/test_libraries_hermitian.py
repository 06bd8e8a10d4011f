"""Tests for the Hermitian routine entry points (the 9-routine claim, §IV-D)."""

import numpy as np
import pytest

from repro.blas.params import Side, Trans, Uplo
from repro.errors import LibraryError
from repro.libraries import make_library
from repro.libraries.base import ALL_ROUTINES
from repro.memory.matrix import Matrix
from tests import blas_reference as ref


def cmat(m, n, seed, name=""):
    rng = np.random.default_rng(seed)
    data = np.asfortranarray(rng.random((m, n)) + 1j * rng.random((m, n)))
    return Matrix(m, n, data=data, name=name)


def test_nine_standard_routines_declared():
    assert len(ALL_ROUTINES) == 9
    assert set(ALL_ROUTINES) == {
        "gemm", "symm", "syr2k", "syrk", "trmm", "trsm", "hemm", "her2k", "herk",
    }


@pytest.mark.parametrize("key", ["xkblas", "cublas-xt", "chameleon-lapack"])
def test_drop_in_libraries_expose_all_nine(dgx1_small, key):
    """The paper names cuBLAS-XT, Chameleon-LAPACK and XKBLAS as the three
    libraries offering the 9 standard routines on LAPACK layout."""
    lib = make_library(key, dgx1_small)
    assert set(lib.routines) == set(ALL_ROUTINES)


def test_gemm_only_libraries_reject_hermitian(dgx1_small):
    lib = make_library("blasx", dgx1_small)
    a, c = cmat(64, 64, 1), cmat(64, 64, 2)
    with pytest.raises(LibraryError):
        lib.call("herk", 32, a=a, c=c)


def test_hemm_numeric(dgx1_small):
    n = 96
    a, b, c = cmat(n, n, 1, "A"), cmat(n, n, 2, "B"), cmat(n, n, 3, "C")
    c0 = c.to_array().copy()
    lib = make_library("xkblas", dgx1_small)
    res = lib.call("hemm", 32, alpha=1.0 + 1.0j, a=a, b=b, beta=0.5, c=c)
    expect = ref.ref_hemm(Side.LEFT, Uplo.LOWER, 1.0 + 1.0j, a.to_array(), b.to_array(), 0.5, c0)
    np.testing.assert_allclose(c.to_array(), expect, atol=1e-10)
    assert res.routine == "hemm" and res.flops > 0


def test_herk_numeric(dgx1_small):
    n, k = 96, 64
    a = cmat(n, k, 4, "A")
    c = cmat(n, n, 5, "C")
    arr = c.to_array()
    arr[np.diag_indices(n)] = arr[np.diag_indices(n)].real
    c0 = arr.copy()
    lib = make_library("xkblas", dgx1_small)
    lib.call("herk", 32, uplo=Uplo.UPPER, alpha=2.0, a=a, c=c)
    expect = ref.ref_herk(Uplo.UPPER, Trans.NOTRANS, 2.0, a.to_array(), 0.0, c0)
    np.testing.assert_allclose(c.to_array(), expect, atol=1e-10)


def test_her2k_numeric(dgx1_small):
    n, k = 96, 48
    a, b = cmat(n, k, 6, "A"), cmat(n, k, 7, "B")
    c = cmat(n, n, 8, "C")
    arr = c.to_array()
    arr[np.diag_indices(n)] = arr[np.diag_indices(n)].real
    c0 = arr.copy()
    lib = make_library("cublas-xt", dgx1_small)
    lib.call("her2k", 32, alpha=0.5 - 0.5j, a=a, b=b, beta=1.0, c=c)
    expect = ref.ref_her2k(
        Uplo.LOWER, Trans.NOTRANS, 0.5 - 0.5j, a.to_array(), b.to_array(), 1.0, c0
    )
    np.testing.assert_allclose(c.to_array(), expect, atol=1e-10)


def test_hermitian_perf_mode_via_harness(dgx1):
    from repro.bench.harness import run_point

    for routine in ("hemm", "herk", "her2k"):
        res = run_point("xkblas", routine, 8192, 2048, dgx1)
        assert res.tflops > 0
        assert res.routine == routine
