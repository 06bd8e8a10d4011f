"""Numeric tests for TRTRI, LAUUM, POTRI, GETRF-nopiv and GESV."""

import numpy as np
import pytest

from repro import Runtime
from repro.blas.params import Diag, Uplo
from repro.lapack import (
    build_getrf_nopiv,
    build_lauum,
    build_trtri,
    gesv_async,
    potri_async,
    trtri_async,
)
from repro.memory.layout import TilePartition
from repro.memory.matrix import Matrix

N = 130
NB = 32


def tri_matrix(n, uplo, seed=0, unit=False):
    rng = np.random.default_rng(seed)
    full = rng.random((n, n)) + n * np.eye(n)
    tri = np.tril(full) if uplo is Uplo.LOWER else np.triu(full)
    if unit:
        np.fill_diagonal(tri, 1.0)
    return Matrix(n, n, data=np.asfortranarray(full.copy()), name="A"), tri


def run_inplace(dgx1_small, builder_tasks, mat):
    rt = Runtime(dgx1_small)
    for t in builder_tasks(rt):
        rt.submit(t)
    rt.memory_coherent_async(mat, NB)
    rt.sync()


@pytest.mark.parametrize("uplo", list(Uplo))
@pytest.mark.parametrize("diag", list(Diag))
def test_trtri_inverts_triangle(dgx1_small, uplo, diag):
    mat, tri = tri_matrix(N, uplo, seed=1, unit=diag is Diag.UNIT)
    run_inplace(
        dgx1_small,
        lambda rt: build_trtri(uplo, diag, rt.partition(mat, NB)),
        mat,
    )
    got = mat.to_array()
    got_tri = np.tril(got) if uplo is Uplo.LOWER else np.triu(got)
    if diag is Diag.UNIT:
        np.fill_diagonal(got_tri, 1.0)
    product = got_tri @ tri
    np.testing.assert_allclose(product, np.eye(N), atol=1e-8)


@pytest.mark.parametrize("uplo", list(Uplo))
def test_trtri_untouched_triangle_preserved(dgx1_small, uplo):
    mat, _ = tri_matrix(N, uplo, seed=2)
    before = mat.to_array().copy()
    run_inplace(
        dgx1_small,
        lambda rt: build_trtri(uplo, Diag.NONUNIT, rt.partition(mat, NB)),
        mat,
    )
    after = mat.to_array()
    if uplo is Uplo.LOWER:
        np.testing.assert_array_equal(np.triu(after, 1), np.triu(before, 1))
    else:
        np.testing.assert_array_equal(np.tril(after, -1), np.tril(before, -1))


@pytest.mark.parametrize("uplo", list(Uplo))
def test_lauum_triangular_product(dgx1_small, uplo):
    mat, tri = tri_matrix(N, uplo, seed=3)
    run_inplace(
        dgx1_small,
        lambda rt: build_lauum(uplo, rt.partition(mat, NB)),
        mat,
    )
    got = mat.to_array()
    if uplo is Uplo.LOWER:
        expect = tri.T @ tri  # LᴴL
        np.testing.assert_allclose(np.tril(got), np.tril(expect), atol=1e-8)
    else:
        expect = tri @ tri.T  # UUᴴ
        np.testing.assert_allclose(np.triu(got), np.triu(expect), atol=1e-8)


@pytest.mark.parametrize("uplo", list(Uplo))
def test_potri_inverts_spd_matrix(dgx1_small, uplo):
    rng = np.random.default_rng(4)
    m = rng.random((N, N))
    spd = m @ m.T + N * np.eye(N)
    chol_l = np.linalg.cholesky(spd)
    factor = chol_l if uplo is Uplo.LOWER else chol_l.T
    mat = Matrix(N, N, data=np.asfortranarray(factor.copy()), name="L")
    rt = Runtime(dgx1_small)
    potri_async(rt, uplo, mat, NB)
    rt.memory_coherent_async(mat, NB)
    rt.sync()
    got = mat.to_array()
    inv = np.tril(got) if uplo is Uplo.LOWER else np.triu(got)
    inv_full = inv + inv.T - np.diag(np.diag(inv))
    np.testing.assert_allclose(spd @ inv_full, np.eye(N), atol=1e-6)


def test_getrf_nopiv_factors(dgx1_small):
    rng = np.random.default_rng(5)
    a_full = rng.random((N, N)) + N * np.eye(N)  # diagonally dominant
    mat = Matrix(N, N, data=np.asfortranarray(a_full.copy()), name="A")
    rt = Runtime(dgx1_small)
    for task in build_getrf_nopiv(rt.partition(mat, NB)):
        rt.submit(task)
    rt.memory_coherent_async(mat, NB)
    rt.sync()
    lu = mat.to_array()
    lower = np.tril(lu, -1) + np.eye(N)
    upper = np.triu(lu)
    np.testing.assert_allclose(lower @ upper, a_full, atol=1e-7)


def test_gesv_solves_system(dgx1_small):
    rng = np.random.default_rng(6)
    a_full = rng.random((N, N)) + N * np.eye(N)
    a = Matrix(N, N, data=np.asfortranarray(a_full.copy()), name="A")
    b = Matrix.random(N, 40, seed=7, name="B")
    b0 = b.to_array().copy()
    rt = Runtime(dgx1_small)
    gesv_async(rt, a, b, NB)
    rt.memory_coherent_async(b, NB)
    rt.sync()
    np.testing.assert_allclose(a_full @ b.to_array(), b0, atol=1e-6)


def test_trtri_async_driver(dgx1_small):
    mat, tri = tri_matrix(97, Uplo.LOWER, seed=8)  # ragged
    rt = Runtime(dgx1_small)
    trtri_async(rt, Uplo.LOWER, mat, NB)
    rt.memory_coherent_async(mat, NB)
    rt.sync()
    np.testing.assert_allclose(
        np.tril(mat.to_array()) @ tri, np.eye(97), atol=1e-8
    )


def test_getrf_zero_pivot_raises():
    from repro.blas.kernels import _lu_nopivot
    from repro.errors import BlasValidationError

    singular = np.zeros((4, 4), order="F")
    with pytest.raises(BlasValidationError, match="pivot"):
        _lu_nopivot(singular)


def test_nonsquare_rejected():
    from repro.errors import BlasValidationError

    part = TilePartition(Matrix.meta(96, 64), 32)
    with pytest.raises(BlasValidationError):
        list(build_trtri(Uplo.LOWER, Diag.NONUNIT, part))
    with pytest.raises(BlasValidationError):
        list(build_lauum(Uplo.LOWER, part))


def test_potri_overlaps_trtri_and_lauum(dgx1_small):
    """Composition: the first LAUUM task starts before the last TRTRI-phase
    task finishes."""
    mat = Matrix.meta(16384, 16384, name="A")
    rt = Runtime(dgx1_small)
    potri_async(rt, Uplo.LOWER, mat, 1024)
    rt.sync()
    tasks = rt.executor.graph.tasks
    trtri_end = max(t.end_time for t in tasks if t.name == "trtri")
    lauum_like = [t for t in tasks if t.name in ("lauum", "syrk")]
    first_lauum = min(t.start_time for t in lauum_like)
    assert first_lauum < trtri_end
