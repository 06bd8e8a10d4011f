"""Tests for the simulated library configurations and their semantics."""

import numpy as np
import pytest

from repro.bench.workloads import matrices_for
from repro.errors import LibraryError
from repro.libraries import LIBRARIES, make_library
from repro.libraries.registry import FIG5_LIBRARIES, XKBLAS_VARIANTS
from repro.memory.matrix import Matrix
from repro.runtime.policies import SourcePolicy
from tests.blas_reference import ref_gemm
from tests.directory_views import valid_devices


def gemm_operands(n=192, seed=0):
    a = Matrix.random(n, n, seed=seed, name="A")
    b = Matrix.random(n, n, seed=seed + 1, name="B")
    c = Matrix.random(n, n, seed=seed + 2, name="C")
    return a, b, c


# ----------------------------------------------------------------- registry


def test_registry_contains_all_paper_libraries():
    assert set(FIG5_LIBRARIES) <= set(LIBRARIES)
    assert set(XKBLAS_VARIANTS) <= set(LIBRARIES)
    assert len(FIG5_LIBRARIES) == 8  # the paper's 8 curves


def test_unknown_library_rejected(dgx1_small):
    with pytest.raises(LibraryError):
        make_library("mkl", dgx1_small)


def test_xkblas_labels_map_to_source_policies(dgx1_small):
    assert (
        make_library("xkblas", dgx1_small).runtime_options().source_policy
        is SourcePolicy.TOPOLOGY_OPTIMISTIC
    )
    assert (
        make_library("xkblas-no-heuristic", dgx1_small).runtime_options().source_policy
        is SourcePolicy.TOPOLOGY
    )
    assert (
        make_library("xkblas-no-heuristic-no-topo", dgx1_small)
        .runtime_options()
        .source_policy
        is SourcePolicy.ANY_VALID
    )


def test_library_pipeline_windows(dgx1_small):
    # The lookahead window (tasks in flight per GPU) through which each
    # library's kernel streams show up on the device's one compute engine.
    windows = {
        "xkblas": 8,
        "xkblas-no-heuristic": 8,
        "xkblas-no-heuristic-no-topo": 8,
        "dplasma": 6,
        "blasx": 4,
        "chameleon-tile": 4,
        "chameleon-lapack": 4,
        "cublas-mg": 4,
        "cublas-xt": 3,
        "slate": 2,
    }
    assert {
        key: make_library(key, dgx1_small).runtime_options().pipeline_window
        for key in LIBRARIES
    } == windows


# ------------------------------------------------------------- correctness


@pytest.mark.parametrize("key", sorted(LIBRARIES))
def test_every_library_computes_correct_gemm(dgx1_small, key):
    a, b, c = gemm_operands()
    c0 = c.to_array().copy()
    lib = make_library(key, dgx1_small)
    res = lib.call("gemm", 64, alpha=1.5, a=a, b=b, beta=-0.5, c=c)
    expect = ref_gemm(1.5, a.to_array(), b.to_array(), -0.5, c0)
    np.testing.assert_allclose(c.to_array(), expect, atol=1e-10)
    assert res.seconds > 0 and res.gflops > 0


def test_gemm_only_libraries_reject_other_routines(dgx1_small):
    for key in ("blasx", "cublas-mg", "dplasma"):
        lib = make_library(key, dgx1_small)
        a = Matrix.meta(256, 256)
        c = Matrix.meta(256, 256)
        with pytest.raises(LibraryError):
            lib.call("syrk", 64, a=a, c=c)


def test_blasx_fails_above_45000(dgx1):
    lib = make_library("blasx", dgx1)
    a = Matrix.meta(46080, 46080)
    b = Matrix.meta(46080, 46080)
    c = Matrix.meta(46080, 46080)
    with pytest.raises(LibraryError, match="allocation"):
        lib.call("gemm", 2048, a=a, b=b, c=c)


def test_library_result_metrics(dgx1_small):
    a, b, c = gemm_operands()
    res = make_library("xkblas", dgx1_small).call("gemm", 64, a=a, b=b, c=c)
    assert res.flops == 2.0 * 192**3
    assert res.tflops == pytest.approx(res.gflops / 1e3)
    assert res.routine == "gemm" and res.library == "XKBlas"
    with pytest.raises(LibraryError):
        res.transfer_share()  # runtime not kept


def test_keep_runtime_enables_trace_analysis(dgx1_small):
    a, b, c = gemm_operands()
    res = make_library("xkblas", dgx1_small).call(
        "gemm", 64, keep_runtime=True, a=a, b=b, c=c
    )
    assert 0.0 < res.transfer_share() < 1.0


@pytest.mark.parametrize("scenario", ["host", "device"])
@pytest.mark.parametrize(
    "library,routine",
    [
        ("xkblas", "gemm"),
        ("xkblas", "syr2k"),
        ("chameleon-tile", "trsm"),
        ("cublas-xt", "symm"),
        ("blasx", "gemm"),
        ("slate", "herk"),
    ],
)
def test_only_a_kept_runtime_records_a_trace(dgx1_small, library, routine, scenario):
    """A session traces exactly when it keeps its runtime, and the untraced
    run simulates the same schedule as the traced one."""
    n, nb = 2048, 512
    runs = {}
    for keep in (False, True):
        session = make_library(library, dgx1_small).session(keep_runtime=keep)
        output = session.call_async(routine, nb, scenario, **matrices_for(routine, n))
        res = session.finish(routine, nb, scenario, output)
        rt = session.runtime
        runs[keep] = (
            res.seconds.hex(), rt.sim.events_fired, rt.transfer.stats(), len(rt.trace)
        )
    assert runs[False][3] == 0
    assert runs[True][3] > 0
    assert runs[False][:3] == runs[True][:3]


# ---------------------------------------------------------------- semantics


def test_synchronous_library_restores_host_after_each_call(dgx1_small):
    """cuBLAS-XT: after a call, the result is on the host and device replicas
    are dropped (data back and forth, §IV-F)."""
    a, b, c = gemm_operands()
    lib = make_library("cublas-xt", dgx1_small)
    res = lib.call("gemm", 64, keep_runtime=True, a=a, b=b, c=c)
    rt = res.runtime
    part = rt._partitions[c.id]
    d = rt.directory
    for tile in part:
        tid = d.lookup(tile.key)
        assert d.host_valid(tid)
        assert valid_devices(d, tid) == []


def test_xkblas_lazy_coherence_leaves_replicas_on_device(dgx1_small):
    a, b, c = gemm_operands()
    lib = make_library("xkblas", dgx1_small)
    res = lib.call("gemm", 64, keep_runtime=True, a=a, b=b, c=c)
    rt = res.runtime
    d = rt.directory
    tids = [d.lookup(t.key) for t in rt._partitions[c.id]]
    assert all(d.host_valid(tid) for tid in tids)  # flushed result
    assert any(valid_devices(d, tid) for tid in tids)  # replicas kept


def test_composition_is_numerically_correct(dgx1_small):
    """TRSM then GEMM through one XKBlas session (the Fig. 8 computation)."""
    n = 160
    rng = np.random.default_rng(5)
    a_arr = np.asfortranarray(rng.random((n, n)) + n * np.eye(n))
    a = Matrix(n, n, data=a_arr, name="A")
    b = Matrix.random(n, n, seed=6, name="B")
    c = Matrix.random(n, n, seed=7, name="C")
    d = Matrix.zeros(n, n, name="D")
    b0 = b.to_array().copy()
    lib = make_library("xkblas", dgx1_small)
    s = lib.session()
    s.call_async("trsm", 48, a=a, b=b)
    s.call_async("gemm", 48, a=b, b=c, c=d)
    s.memory_coherent_async(b, 48)
    s.memory_coherent_async(d, 48)
    s.sync()
    x = np.linalg.solve(np.tril(a_arr), b0)
    np.testing.assert_allclose(b.to_array(), x, atol=1e-8)
    np.testing.assert_allclose(d.to_array(), x @ c.to_array(), atol=1e-7)


def test_composition_faster_than_synchronous_sequence(dgx1_small):
    """Asynchronous composition (XKBlas) beats barrier-separated calls
    (Chameleon-style) on the same workload."""
    n, nb = 8192, 1024

    def compose(key):
        lib = make_library(key, dgx1_small)
        a = Matrix.meta(n, n, name="A")
        b = Matrix.meta(n, n, name="B")
        c = Matrix.meta(n, n, name="C")
        d = Matrix.meta(n, n, name="D")
        s = lib.session()
        s.call_async("trsm", nb, a=a, b=b)
        s.call_async("gemm", nb, a=b, b=c, c=d)
        s.memory_coherent_async(d, nb)
        return s.sync()

    assert compose("xkblas") < compose("chameleon-tile")


def test_chameleon_lapack_charges_conversions(dgx1_small):
    a, b, c = (Matrix.meta(4096, 4096, name=n) for n in "ABC")
    tile = make_library("chameleon-tile", dgx1_small).call("gemm", 1024, a=a, b=b, c=c)
    a, b, c = (Matrix.meta(4096, 4096, name=n) for n in "ABC")
    lapack = make_library("chameleon-lapack", dgx1_small).call("gemm", 1024, a=a, b=b, c=c)
    assert lapack.seconds > tile.seconds
    # conversion of A, B once and C twice at host copy bandwidth
    from repro.memory.layout import layout_conversion_time

    expected_extra = 4 * layout_conversion_time(a.nbytes)
    assert lapack.seconds - tile.seconds == pytest.approx(expected_extra, rel=0.35)


def test_dod_scenario_leaves_result_on_device(dgx1_small):
    a, b, c = gemm_operands()
    res = make_library("xkblas", dgx1_small).call(
        "gemm", 64, "device", keep_runtime=True, a=a, b=b, c=c
    )
    rt = res.runtime
    d = rt.directory
    assert all(not d.host_valid(d.lookup(t.key)) for t in rt._partitions[c.id])
    assert rt.transfer.stats()["h2d"] == 0  # nothing crossed PCIe inbound


def test_dod_numeric_correctness_via_explicit_flush(dgx1_small):
    a, b, c = gemm_operands(seed=30)
    c0 = c.to_array().copy()
    lib = make_library("xkblas", dgx1_small)
    s = lib.session()
    s.call_async("gemm", 64, "device", alpha=2.0, a=a, b=b, beta=1.0, c=c)
    s.memory_coherent_async(c, 64)
    s.sync()
    expect = ref_gemm(2.0, a.to_array(), b.to_array(), 1.0, c0)
    np.testing.assert_allclose(c.to_array(), expect, atol=1e-10)
