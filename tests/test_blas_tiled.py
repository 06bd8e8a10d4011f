"""Numeric validation of every tiled algorithm against the references.

Each case builds the task graph, executes it on the simulated 4-GPU DGX-1
slice (numeric mode), flushes the result to the host, and compares with the
whole-matrix reference implementation.  Dimensions are chosen ragged (not
multiples of nb) to exercise border tiles.
"""

import numpy as np
import pytest

from repro import Runtime
from repro.blas import tiled
from repro.blas.params import Diag, Side, Trans, Uplo
from repro.memory.matrix import Matrix
from tests import blas_reference as ref

NB = 24
M, N, K = 70, 55, 41  # deliberately ragged vs NB


@pytest.fixture()
def run(dgx1_small):
    def _run(builder, matrices, out):
        rt = Runtime(dgx1_small)
        parts = {name: rt.partition(m, NB) for name, m in matrices.items()}
        for task in builder(parts):
            rt.submit(task)
        rt.memory_coherent_async(out, NB)
        rt.sync()

    return _run


def rnd(m, n, seed, spd=False):
    mat = Matrix.random(m, n, seed=seed)
    if spd:
        arr = mat.to_array()
        arr[: min(m, n), : min(m, n)] += np.eye(min(m, n)) * m
    return mat


# ------------------------------------------------------------------- GEMM


@pytest.mark.parametrize("transa", [Trans.NOTRANS, Trans.TRANS])
@pytest.mark.parametrize("transb", [Trans.NOTRANS, Trans.TRANS])
def test_gemm_all_transposes(run, transa, transb):
    ashape = (M, K) if transa is Trans.NOTRANS else (K, M)
    bshape = (K, N) if transb is Trans.NOTRANS else (N, K)
    a, b = rnd(*ashape, seed=1), rnd(*bshape, seed=2)
    c = rnd(M, N, seed=3)
    c0 = c.to_array().copy()
    run(
        lambda p: tiled.build_gemm(1.7, p["a"], p["b"], -0.3, p["c"], transa, transb),
        {"a": a, "b": b, "c": c},
        c,
    )
    expect = ref.ref_gemm(1.7, a.to_array(), b.to_array(), -0.3, c0, transa, transb)
    np.testing.assert_allclose(c.to_array(), expect, atol=1e-10)


def test_gemm_beta_zero_overwrites_garbage(run):
    a, b = rnd(M, K, seed=1), rnd(K, N, seed=2)
    c = Matrix(M, N, data=np.full((M, N), np.inf, order="F"))
    run(
        lambda p: tiled.build_gemm(1.0, p["a"], p["b"], 0.0, p["c"]),
        {"a": a, "b": b, "c": c},
        c,
    )
    expect = a.to_array() @ b.to_array()
    np.testing.assert_allclose(c.to_array(), expect, atol=1e-10)


def test_gemm_rectangular_extreme(run):
    a, b = rnd(8, 100, seed=4), rnd(100, 150, seed=5)
    c = rnd(8, 150, seed=6)
    c0 = c.to_array().copy()
    run(
        lambda p: tiled.build_gemm(1.0, p["a"], p["b"], 1.0, p["c"]),
        {"a": a, "b": b, "c": c},
        c,
    )
    expect = a.to_array() @ b.to_array() + c0
    np.testing.assert_allclose(c.to_array(), expect, atol=1e-10)


# ------------------------------------------------------------- SYRK/SYR2K


@pytest.mark.parametrize("uplo", list(Uplo))
@pytest.mark.parametrize("trans", [Trans.NOTRANS, Trans.TRANS])
def test_syrk(run, uplo, trans):
    shape = (N, K) if trans is Trans.NOTRANS else (K, N)
    a = rnd(*shape, seed=10)
    c = rnd(N, N, seed=11)
    c0 = c.to_array().copy()
    run(
        lambda p: tiled.build_syrk(uplo, trans, 0.9, p["a"], 0.4, p["c"]),
        {"a": a, "c": c},
        c,
    )
    expect = ref.ref_syrk(uplo, trans, 0.9, a.to_array(), 0.4, c0)
    np.testing.assert_allclose(c.to_array(), expect, atol=1e-10)


@pytest.mark.parametrize("uplo", list(Uplo))
@pytest.mark.parametrize("trans", [Trans.NOTRANS, Trans.TRANS])
def test_syr2k(run, uplo, trans):
    shape = (N, K) if trans is Trans.NOTRANS else (K, N)
    a, b = rnd(*shape, seed=12), rnd(*shape, seed=13)
    c = rnd(N, N, seed=14)
    c0 = c.to_array().copy()
    run(
        lambda p: tiled.build_syr2k(uplo, trans, 1.1, p["a"], p["b"], -0.6, p["c"]),
        {"a": a, "b": b, "c": c},
        c,
    )
    expect = ref.ref_syr2k(uplo, trans, 1.1, a.to_array(), b.to_array(), -0.6, c0)
    np.testing.assert_allclose(c.to_array(), expect, atol=1e-10)


def test_syrk_untouched_triangle_preserved(run):
    a = rnd(N, K, seed=15)
    c = Matrix(N, N, data=np.full((N, N), 5.0, order="F"))
    run(
        lambda p: tiled.build_syrk(Uplo.LOWER, Trans.NOTRANS, 1.0, p["a"], 0.0, p["c"]),
        {"a": a, "c": c},
        c,
    )
    upper = c.to_array()[np.triu_indices(N, 1)]
    assert np.all(upper == 5.0)


# ------------------------------------------------------------------- SYMM


@pytest.mark.parametrize("side", list(Side))
@pytest.mark.parametrize("uplo", list(Uplo))
def test_symm(run, side, uplo):
    order = M if side is Side.LEFT else N
    a = rnd(order, order, seed=20)
    b = rnd(M, N, seed=21)
    c = rnd(M, N, seed=22)
    c0 = c.to_array().copy()
    run(
        lambda p: tiled.build_symm(side, uplo, 0.8, p["a"], p["b"], 0.2, p["c"]),
        {"a": a, "b": b, "c": c},
        c,
    )
    expect = ref.ref_symm(side, uplo, 0.8, a.to_array(), b.to_array(), 0.2, c0)
    np.testing.assert_allclose(c.to_array(), expect, atol=1e-10)


# ------------------------------------------------------------- TRMM/TRSM


@pytest.mark.parametrize("side", list(Side))
@pytest.mark.parametrize("uplo", list(Uplo))
@pytest.mark.parametrize("trans", [Trans.NOTRANS, Trans.TRANS])
@pytest.mark.parametrize("diag", list(Diag))
def test_trmm(run, side, uplo, trans, diag):
    order = M if side is Side.LEFT else N
    a = rnd(order, order, seed=30, spd=True)
    b = rnd(M, N, seed=31)
    b0 = b.to_array().copy()
    run(
        lambda p: tiled.build_trmm(side, uplo, trans, diag, 1.3, p["a"], p["b"]),
        {"a": a, "b": b},
        b,
    )
    expect = ref.ref_trmm(side, uplo, trans, diag, 1.3, a.to_array(), b0)
    np.testing.assert_allclose(b.to_array(), expect, atol=1e-9)


@pytest.mark.parametrize("side", list(Side))
@pytest.mark.parametrize("uplo", list(Uplo))
@pytest.mark.parametrize("trans", [Trans.NOTRANS, Trans.TRANS])
@pytest.mark.parametrize("diag", list(Diag))
def test_trsm(run, side, uplo, trans, diag):
    order = M if side is Side.LEFT else N
    a = rnd(order, order, seed=40, spd=True)
    b = rnd(M, N, seed=41)
    b0 = b.to_array().copy()
    run(
        lambda p: tiled.build_trsm(side, uplo, trans, diag, 0.7, p["a"], p["b"]),
        {"a": a, "b": b},
        b,
    )
    expect = ref.ref_trsm(side, uplo, trans, diag, 0.7, a.to_array(), b0)
    np.testing.assert_allclose(b.to_array(), expect, atol=1e-8)


def test_trsm_solution_satisfies_system(run):
    """Independent check: op(A) X == alpha B up to conditioning."""
    a = rnd(M, M, seed=42, spd=True)
    b = rnd(M, N, seed=43)
    b0 = b.to_array().copy()
    run(
        lambda p: tiled.build_trsm(
            Side.LEFT, Uplo.LOWER, Trans.NOTRANS, Diag.NONUNIT, 1.0, p["a"], p["b"]
        ),
        {"a": a, "b": b},
        b,
    )
    residual = np.tril(a.to_array()) @ b.to_array() - b0
    assert np.max(np.abs(residual)) < 1e-8


# --------------------------------------------------------------- Hermitian


def crnd(m, n, seed):
    rng = np.random.default_rng(seed)
    data = np.asfortranarray(rng.random((m, n)) + 1j * rng.random((m, n)))
    return Matrix(m, n, data=data)


def test_hemm_complex(run):
    a, b, c = crnd(M, M, 50), crnd(M, N, 51), crnd(M, N, 52)
    c0 = c.to_array().copy()
    run(
        lambda p: tiled.build_hemm(Side.LEFT, Uplo.LOWER, 1.2, p["a"], p["b"], 0.3, p["c"]),
        {"a": a, "b": b, "c": c},
        c,
    )
    expect = ref.ref_hemm(Side.LEFT, Uplo.LOWER, 1.2, a.to_array(), b.to_array(), 0.3, c0)
    np.testing.assert_allclose(c.to_array(), expect, atol=1e-10)


def test_herk_complex(run):
    a, c = crnd(N, K, 53), crnd(N, N, 54)
    arr = c.to_array()
    arr[np.diag_indices(N)] = arr[np.diag_indices(N)].real  # BLAS precondition
    c0 = arr.copy()
    run(
        lambda p: tiled.build_herk(Uplo.LOWER, Trans.NOTRANS, 0.9, p["a"], 0.1, p["c"]),
        {"a": a, "c": c},
        c,
    )
    expect = ref.ref_herk(Uplo.LOWER, Trans.NOTRANS, 0.9, a.to_array(), 0.1, c0)
    np.testing.assert_allclose(c.to_array(), expect, atol=1e-10)
    diag = np.diag(c.to_array())
    np.testing.assert_allclose(diag.imag, 0.0, atol=1e-12)


def test_her2k_complex(run):
    a, b, c = crnd(N, K, 55), crnd(N, K, 56), crnd(N, N, 57)
    arr = c.to_array()
    arr[np.diag_indices(N)] = arr[np.diag_indices(N)].real
    c0 = arr.copy()
    run(
        lambda p: tiled.build_her2k(
            Uplo.LOWER, Trans.NOTRANS, 0.5 + 0.5j, p["a"], p["b"], 0.2, p["c"]
        ),
        {"a": a, "b": b, "c": c},
        c,
    )
    expect = ref.ref_her2k(
        Uplo.LOWER, Trans.NOTRANS, 0.5 + 0.5j, a.to_array(), b.to_array(), 0.2, c0
    )
    np.testing.assert_allclose(c.to_array(), expect, atol=1e-10)


# ----------------------------------------------------------- graph shapes


def test_gemm_task_count():
    rt_parts = {}
    a, b, c = Matrix.meta(96, 96), Matrix.meta(96, 96), Matrix.meta(96, 96)
    from repro.memory.layout import TilePartition

    pa, pb, pc = (TilePartition(m, 32) for m in (a, b, c))
    tasks = list(tiled.build_gemm(1.0, pa, pb, 0.0, pc))
    assert len(tasks) == 3 * 3 * 3


def test_syrk_task_count_lower_triangle_only():
    from repro.memory.layout import TilePartition

    a, c = Matrix.meta(96, 64), Matrix.meta(96, 96)
    pa, pc = TilePartition(a, 32), TilePartition(c, 32)
    tasks = list(tiled.build_syrk(Uplo.LOWER, Trans.NOTRANS, 1.0, pa, 0.0, pc))
    # 3 diagonal tiles * 2 panels + 3 sub-diagonal tiles * 2 panels
    assert len(tasks) == 3 * 2 + 3 * 2
    written = {t.output_tile.key for t in tasks}
    assert all(k.i >= k.j for k in written)


def test_shape_validation_errors():
    from repro.errors import BlasValidationError
    from repro.memory.layout import TilePartition

    pa = TilePartition(Matrix.meta(64, 64), 32)
    pb = TilePartition(Matrix.meta(32, 64), 32)
    pc = TilePartition(Matrix.meta(64, 64), 32)
    with pytest.raises(BlasValidationError):
        list(tiled.build_gemm(1.0, pa, pb, 0.0, pc))
    pbad = TilePartition(Matrix.meta(64, 64), 16)
    with pytest.raises(BlasValidationError):
        list(tiled.build_gemm(1.0, pa, pa, 0.0, pbad))
