"""Tests for the numeric tile kernels (BLAS reference semantics)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blas import kernels as K
from repro.blas.params import Diag, Side, Trans, Uplo

RNG = np.random.default_rng(7)


def arrays(m, n, k):
    a = np.asfortranarray(RNG.random((m, k)) - 0.5)
    b = np.asfortranarray(RNG.random((k, n)) - 0.5)
    c = np.asfortranarray(RNG.random((m, n)) - 0.5)
    return a, b, c


def test_gemm_kernel_nn():
    a, b, c = arrays(6, 5, 4)
    expect = 2.0 * a @ b - 0.5 * c
    K.k_gemm(2.0, -0.5)(a, b, c)
    np.testing.assert_allclose(c, expect, atol=1e-12)


def test_gemm_kernel_transposes():
    a, b, c = arrays(6, 5, 4)
    at = np.asfortranarray(a.T.copy())
    bt = np.asfortranarray(b.T.copy())
    expect = a @ b
    got = np.asfortranarray(np.zeros_like(c))
    K.k_gemm(1.0, 0.0, Trans.TRANS, Trans.TRANS)(at, bt, got)
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_gemm_conjtrans_complex():
    a = np.asfortranarray(RNG.random((4, 3)) + 1j * RNG.random((4, 3)))
    b = np.asfortranarray(RNG.random((4, 5)) + 1j * RNG.random((4, 5)))
    c = np.asfortranarray(np.zeros((3, 5), dtype=complex))
    K.k_gemm(1.0, 0.0, Trans.CONJTRANS, Trans.NOTRANS)(a, b, c)
    np.testing.assert_allclose(c, a.conj().T @ b, atol=1e-12)


@pytest.mark.parametrize("uplo", list(Uplo))
def test_syrk_touches_only_stored_triangle(uplo):
    a = np.asfortranarray(RNG.random((5, 3)))
    c = np.asfortranarray(np.full((5, 5), 42.0))
    K.k_syrk(uplo, Trans.NOTRANS, 1.0, 0.0)(a, c)
    other = np.triu(c, 1) if uplo is Uplo.LOWER else np.tril(c, -1)
    assert np.all(other[other != 0] == 42.0)  # untouched region intact
    full = a @ a.T
    idx = np.tril_indices(5) if uplo is Uplo.LOWER else np.triu_indices(5)
    np.testing.assert_allclose(c[idx], full[idx], atol=1e-12)


@pytest.mark.parametrize("uplo", list(Uplo))
def test_syr2k_kernel(uplo):
    a = np.asfortranarray(RNG.random((4, 3)))
    b = np.asfortranarray(RNG.random((4, 3)))
    c0 = np.asfortranarray(RNG.random((4, 4)))
    c = c0.copy(order="F")
    K.k_syr2k(uplo, Trans.NOTRANS, 1.5, 0.25)(a, b, c)
    full = 1.5 * (a @ b.T + b @ a.T) + 0.25 * c0
    idx = np.tril_indices(4) if uplo is Uplo.LOWER else np.triu_indices(4)
    np.testing.assert_allclose(c[idx], full[idx], atol=1e-12)


def test_symm_kernel_uses_stored_triangle_only():
    a = np.asfortranarray(RNG.random((4, 4)))
    sym = np.tril(a) + np.tril(a, -1).T
    b = np.asfortranarray(RNG.random((4, 3)))
    c = np.asfortranarray(np.zeros((4, 3)))
    # Poison the unstored (upper) triangle: result must not change.
    poisoned = a.copy(order="F")
    poisoned[np.triu_indices(4, 1)] = 1e9
    K.k_symm(Side.LEFT, Uplo.LOWER, 1.0, 0.0)(poisoned, b, c)
    np.testing.assert_allclose(c, sym @ b, atol=1e-12)


def test_trmm_kernel_unit_diag():
    a = np.asfortranarray(RNG.random((4, 4)) + np.eye(4))
    b0 = np.asfortranarray(RNG.random((4, 3)))
    b = b0.copy(order="F")
    K.k_trmm(Side.LEFT, Uplo.LOWER, Trans.NOTRANS, Diag.UNIT, 2.0)(a, b)
    t = np.tril(a)
    np.fill_diagonal(t, 1.0)
    np.testing.assert_allclose(b, 2.0 * t @ b0, atol=1e-12)


@pytest.mark.parametrize("side", list(Side))
@pytest.mark.parametrize("uplo", list(Uplo))
@pytest.mark.parametrize("trans", [Trans.NOTRANS, Trans.TRANS])
def test_trsm_kernel_solves(side, uplo, trans):
    n = 5
    a = np.asfortranarray(RNG.random((n, n)) + n * np.eye(n))
    b0 = np.asfortranarray(RNG.random((n, n)))
    b = b0.copy(order="F")
    K.k_trsm(side, uplo, trans, Diag.NONUNIT, 1.5)(a, b)
    t = np.tril(a) if uplo is Uplo.LOWER else np.triu(a)
    op = t.T if trans is Trans.TRANS else t
    if side is Side.LEFT:
        np.testing.assert_allclose(op @ b, 1.5 * b0, atol=1e-9)
    else:
        np.testing.assert_allclose(b @ op, 1.5 * b0, atol=1e-9)


def test_herk_hermitian_result():
    a = np.asfortranarray(RNG.random((4, 3)) + 1j * RNG.random((4, 3)))
    c = np.asfortranarray(np.zeros((4, 4), dtype=complex))
    K.k_syrk(Uplo.LOWER, Trans.NOTRANS, 1.0, 0.0, hermitian=True)(a, c)
    full = a @ a.conj().T
    idx = np.tril_indices(4)
    np.testing.assert_allclose(c[idx], full[idx], atol=1e-12)
    assert np.allclose(np.diag(c).imag, 0.0)


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(1, 8),
    n=st.integers(1, 8),
    k=st.integers(1, 8),
    alpha=st.floats(-2, 2, allow_nan=False),
    beta=st.floats(-2, 2, allow_nan=False),
)
def test_property_gemm_matches_numpy(m, n, k, alpha, beta):
    rng = np.random.default_rng(m * 64 + n * 8 + k)
    a = np.asfortranarray(rng.random((m, k)))
    b = np.asfortranarray(rng.random((k, n)))
    c0 = np.asfortranarray(rng.random((m, n)))
    c = c0.copy(order="F")
    K.k_gemm(alpha, beta)(a, b, c)
    np.testing.assert_allclose(c, alpha * a @ b + beta * c0, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 8), k=st.integers(1, 8))
def test_property_syrk_result_symmetric_when_mirrored(n, k):
    rng = np.random.default_rng(n * 16 + k)
    a = np.asfortranarray(rng.random((n, k)))
    lo = np.asfortranarray(np.zeros((n, n)))
    up = np.asfortranarray(np.zeros((n, n)))
    K.k_syrk(Uplo.LOWER, Trans.NOTRANS, 1.0, 0.0)(a, lo)
    K.k_syrk(Uplo.UPPER, Trans.NOTRANS, 1.0, 0.0)(a, up)
    np.testing.assert_allclose(np.tril(lo), np.triu(up).T, atol=1e-12)
