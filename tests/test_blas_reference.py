"""Tests for the whole-matrix reference routines (shape checks + identities)."""

import numpy as np
import pytest

from repro.blas.params import Diag, Side, Trans, Uplo
from repro.errors import BlasValidationError
from tests import blas_reference as ref

RNG = np.random.default_rng(99)


def test_gemm_shape_validation():
    with pytest.raises(BlasValidationError):
        ref.ref_gemm(1.0, RNG.random((3, 4)), RNG.random((5, 2)), 0.0, np.zeros((3, 2)))
    with pytest.raises(BlasValidationError):
        ref.ref_gemm(1.0, RNG.random(3), RNG.random((3, 2)), 0.0, np.zeros((1, 2)))


def test_symm_equals_gemm_on_symmetric_input():
    a = RNG.random((5, 5))
    a = a + a.T
    b = RNG.random((5, 4))
    c1 = np.zeros((5, 4))
    c2 = np.zeros((5, 4))
    ref.ref_symm(Side.LEFT, Uplo.LOWER, 1.0, np.tril(a), b, 0.0, c1)
    ref.ref_gemm(1.0, a, b, 0.0, c2)
    np.testing.assert_allclose(c1, c2, atol=1e-12)


def test_symm_shape_validation():
    with pytest.raises(BlasValidationError):
        ref.ref_symm(
            Side.LEFT, Uplo.LOWER, 1.0,
            RNG.random((3, 3)), RNG.random((4, 2)), 0.0, np.zeros((4, 2)),
        )


def test_syrk_equals_gemm_with_own_transpose():
    a = RNG.random((5, 3))
    c1 = np.zeros((5, 5))
    ref.ref_syrk(Uplo.LOWER, Trans.NOTRANS, 1.0, a, 0.0, c1)
    full = a @ a.T
    np.testing.assert_allclose(np.tril(c1), np.tril(full), atol=1e-12)


def test_syrk_rejects_rectangular_c():
    with pytest.raises(BlasValidationError):
        ref.ref_syrk(Uplo.LOWER, Trans.NOTRANS, 1.0, RNG.random((3, 2)), 0.0, np.zeros((3, 4)))


def test_syr2k_symmetry_of_update():
    a, b = RNG.random((4, 3)), RNG.random((4, 3))
    c = np.zeros((4, 4))
    ref.ref_syr2k(Uplo.LOWER, Trans.NOTRANS, 1.0, a, b, 0.0, c)
    full = a @ b.T + b @ a.T
    np.testing.assert_allclose(np.tril(c), np.tril(full), atol=1e-12)
    assert np.allclose(full, full.T)


def test_trmm_trsm_inverse_of_each_other():
    n = 6
    a = RNG.random((n, n)) + n * np.eye(n)
    b0 = RNG.random((n, 4))
    b = b0.copy()
    ref.ref_trmm(Side.LEFT, Uplo.LOWER, Trans.NOTRANS, Diag.NONUNIT, 2.0, a, b)
    ref.ref_trsm(Side.LEFT, Uplo.LOWER, Trans.NOTRANS, Diag.NONUNIT, 0.5, a, b)
    np.testing.assert_allclose(b, b0, atol=1e-10)


def test_trsm_right_side_solves():
    n = 5
    a = RNG.random((n, n)) + n * np.eye(n)
    b0 = RNG.random((3, n))
    b = b0.copy()
    ref.ref_trsm(Side.RIGHT, Uplo.UPPER, Trans.NOTRANS, Diag.NONUNIT, 1.0, a, b)
    np.testing.assert_allclose(b @ np.triu(a), b0, atol=1e-10)


def test_trmm_shape_validation():
    with pytest.raises(BlasValidationError):
        ref.ref_trmm(Side.LEFT, Uplo.LOWER, Trans.NOTRANS, Diag.NONUNIT, 1.0,
                     RNG.random((3, 3)), RNG.random((4, 2)))
    with pytest.raises(BlasValidationError):
        ref.ref_trsm(Side.RIGHT, Uplo.LOWER, Trans.NOTRANS, Diag.NONUNIT, 1.0,
                     RNG.random((3, 3)), RNG.random((4, 2)))


def test_hermitian_wrappers():
    a = RNG.random((4, 4)) + 1j * RNG.random((4, 4))
    np.fill_diagonal(a, a.diagonal().real)
    b = RNG.random((4, 2)) + 1j * RNG.random((4, 2))
    c = np.zeros((4, 2), dtype=complex)
    ref.ref_hemm(Side.LEFT, Uplo.LOWER, 1.0, a, b, 0.0, c)
    herm = np.tril(a) + np.tril(a, -1).conj().T
    np.testing.assert_allclose(c, herm @ b, atol=1e-12)
