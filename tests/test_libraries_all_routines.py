"""Numeric correctness of every routine through every full-featured library.

The strongest end-to-end matrix: 5 library configurations × the 9 BLAS-3
routines (GEMM under all four transpose pairs, the Hermitian ones on both
triangles and with one matrix passed as two operands), each executed
numerically on the simulated 4-GPU platform and compared with the reference
implementation.  Whatever the scheduler, source policy, call
semantics or eviction policy, the numbers must be identical.
"""

import numpy as np
import pytest

from repro.blas.params import Diag, Side, Trans, Uplo
from repro.libraries import make_library
from repro.memory.matrix import Matrix
from tests import blas_reference as ref

FULL_LIBRARIES = ("xkblas", "cublas-xt", "chameleon-tile", "chameleon-lapack", "slate")
N, NB = 144, 48


def mats(*shapes, seeds=(1, 2, 3), spd_first=False):
    out = []
    for idx, (m, n) in enumerate(shapes):
        mat = Matrix.random(m, n, seed=seeds[idx % len(seeds)] + idx, name=f"M{idx}")
        if spd_first and idx == 0:
            arr = mat.to_array()
            arr += np.eye(m) * m
        out.append(mat)
    return out


def cmats(*shapes):
    """Complex operands (Hermitian routines)."""
    rng = np.random.default_rng(7)
    return [
        Matrix(m, n, data=np.asfortranarray(rng.random((m, n)) + 1j * rng.random((m, n))),
               name=f"Z{idx}")
        for idx, (m, n) in enumerate(shapes)
    ]


@pytest.mark.parametrize("key", FULL_LIBRARIES)
class TestAllRoutinesNumeric:
    def test_gemm(self, dgx1_small, key):
        a, b, c = mats((N, 96), (96, N), (N, N))
        c0 = c.to_array().copy()
        make_library(key, dgx1_small).call("gemm", NB, alpha=1.2, a=a, b=b, beta=-0.4, c=c)
        expect = ref.ref_gemm(1.2, a.to_array(), b.to_array(), -0.4, c0)
        np.testing.assert_allclose(c.to_array(), expect, atol=1e-10)

    def test_symm(self, dgx1_small, key):
        a, b, c = mats((N, N), (N, 96), (N, 96))
        c0 = c.to_array().copy()
        make_library(key, dgx1_small).call("symm", NB, alpha=0.9, a=a, b=b, beta=0.5, c=c)
        expect = ref.ref_symm(Side.LEFT, Uplo.LOWER, 0.9, a.to_array(), b.to_array(), 0.5, c0)
        np.testing.assert_allclose(c.to_array(), expect, atol=1e-10)

    def test_syrk(self, dgx1_small, key):
        a, c = mats((N, 80), (N, N))
        c0 = c.to_array().copy()
        make_library(key, dgx1_small).call("syrk", NB, uplo=Uplo.UPPER, a=a, beta=0.2, c=c)
        expect = ref.ref_syrk(Uplo.UPPER, Trans.NOTRANS, 1.0, a.to_array(), 0.2, c0)
        np.testing.assert_allclose(c.to_array(), expect, atol=1e-10)

    def test_syr2k(self, dgx1_small, key):
        a, b, c = mats((N, 80), (N, 80), (N, N))
        c0 = c.to_array().copy()
        make_library(key, dgx1_small).call("syr2k", NB, alpha=0.7, a=a, b=b, c=c)
        expect = ref.ref_syr2k(
            Uplo.LOWER, Trans.NOTRANS, 0.7, a.to_array(), b.to_array(), 0.0, c0
        )
        np.testing.assert_allclose(c.to_array(), expect, atol=1e-10)

    def test_trmm(self, dgx1_small, key):
        a, b = mats((N, N), (N, 96), spd_first=True)
        b0 = b.to_array().copy()
        make_library(key, dgx1_small).call("trmm", NB, alpha=1.5, a=a, b=b)
        expect = ref.ref_trmm(
            Side.LEFT, Uplo.LOWER, Trans.NOTRANS, Diag.NONUNIT, 1.5, a.to_array(), b0
        )
        np.testing.assert_allclose(b.to_array(), expect, atol=1e-9)

    def test_trsm(self, dgx1_small, key):
        a, b = mats((N, N), (N, 96), spd_first=True)
        b0 = b.to_array().copy()
        make_library(key, dgx1_small).call("trsm", NB, a=a, b=b)
        expect = ref.ref_trsm(
            Side.LEFT, Uplo.LOWER, Trans.NOTRANS, Diag.NONUNIT, 1.0, a.to_array(), b0
        )
        np.testing.assert_allclose(b.to_array(), expect, atol=1e-8)

    @pytest.mark.parametrize("transb", (Trans.NOTRANS, Trans.TRANS), ids=("N", "T"))
    @pytest.mark.parametrize("transa", (Trans.NOTRANS, Trans.TRANS), ids=("N", "T"))
    def test_gemm_transposes(self, dgx1_small, key, transa, transb):
        k = 80  # ragged: not a multiple of NB
        a, b, c = mats(
            (N, k) if transa is Trans.NOTRANS else (k, N),
            (k, 96) if transb is Trans.NOTRANS else (96, k),
            (N, 96),
        )
        c0 = c.to_array().copy()
        make_library(key, dgx1_small).call(
            "gemm", NB, alpha=2.0, a=a, b=b, beta=-1.0, c=c, transa=transa, transb=transb
        )
        expect = ref.ref_gemm(2.0, a.to_array(), b.to_array(), -1.0, c0, transa, transb)
        np.testing.assert_allclose(c.to_array(), expect, atol=1e-10)

    def test_hermitian_upper_lower_and_aliased_operands(self, dgx1_small, key):
        """HEMM on the upper triangle with a rectangular B, HERK on the lower
        one, and HER2K with one matrix passed as both A and B."""
        lib = make_library(key, dgx1_small)
        a, b, c = cmats((N, N), (N, 96), (N, 96))
        c0 = c.to_array().copy()
        lib.call("hemm", NB, uplo=Uplo.UPPER, a=a, b=b, c=c)
        expect = ref.ref_hemm(Side.LEFT, Uplo.UPPER, 1.0, a.to_array(), b.to_array(), 0.0, c0)
        np.testing.assert_allclose(c.to_array(), expect, atol=1e-10)

        g, s, s2 = cmats((N, 80), (N, N), (N, N))
        s0, s20 = s.to_array().copy(), s2.to_array().copy()
        lib.call("herk", NB, a=g, c=s)
        expect = ref.ref_herk(Uplo.LOWER, Trans.NOTRANS, 1.0, g.to_array(), 0.0, s0)
        np.testing.assert_allclose(s.to_array(), expect, atol=1e-10)
        lib.call("her2k", NB, a=g, b=g, c=s2)
        g0 = g.to_array()
        expect = ref.ref_her2k(Uplo.LOWER, Trans.NOTRANS, 1.0, g0, g0, 0.0, s20)
        np.testing.assert_allclose(s2.to_array(), expect, atol=1e-10)
