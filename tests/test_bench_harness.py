"""Tests for the benchmark harness, workloads and experiment plumbing."""

import pytest

from repro.bench.cellspec import PlatformHandle
from repro.bench.harness import (
    BestTileResult,
    ExperimentResult,
    best_over_tiles,
    dod_tile_size,
    run_point,
    safe_point,
    series_to_rows,
    tile_candidates,
    tile_specs,
)
from repro.bench.workloads import default_args, matrices_for, paper_sizes
from repro.errors import BenchmarkError
from repro.topology.dgx1 import make_dgx1


@pytest.fixture(scope="module")
def plat():
    return PlatformHandle("dgx1", 4)


# -------------------------------------------------------------- workloads


def test_paper_sizes():
    assert max(paper_sizes()) >= 49152
    assert set(paper_sizes(fast=True)) <= set(range(1, 10**6))
    assert len(paper_sizes(fast=True)) < len(paper_sizes())


@pytest.mark.parametrize(
    "routine", ["gemm", "symm", "syrk", "syr2k", "trmm", "trsm", "hemm", "herk", "her2k"]
)
def test_matrices_for_all_routines(routine):
    mats = matrices_for(routine, 256, k=128)
    assert all(not m.numeric for m in mats.values())
    args = default_args(routine)
    assert "alpha" in args
    numeric = matrices_for(routine, 64, numeric=True)
    assert all(m.numeric for m in numeric.values())


def test_matrices_for_unknown_routine():
    with pytest.raises(BenchmarkError):
        matrices_for("getrf", 64)
    with pytest.raises(BenchmarkError):
        default_args("getrf")


def test_dod_tile_size_rule():
    assert dod_tile_size(16384, 8) == 2048  # the paper's ceil(N/#GPUs)
    assert dod_tile_size(10240, 8) == 1280
    assert dod_tile_size(100, 8) == 256  # floor


# ---------------------------------------------------------------- harness


def test_run_point_returns_result(plat):
    res = run_point("xkblas", "gemm", 4096, 1024, plat)
    assert res.tflops > 0
    assert res.nb == 1024 and res.m == res.n == 4096


def test_run_point_unknown_routine(plat):
    with pytest.raises(BenchmarkError):
        run_point("xkblas", "potrf", 4096, 1024, plat)


def test_tile_candidates_extended_for_streaming_libraries():
    assert 16384 in tile_candidates("cublas-xt")
    assert 16384 in tile_candidates("slate")
    assert tile_candidates("xkblas") == (1024, 2048, 4096)
    assert len(tile_candidates("xkblas", fast=True)) < 3


def test_best_over_tiles_picks_the_fastest(plat):
    best = best_over_tiles("xkblas", "gemm", 8192, plat, tiles=(1024, 2048))
    assert isinstance(best, BestTileResult)
    assert set(best.tried) == {1024, 2048}
    assert best.tflops == max(best.tried.values())
    assert best.nb in best.tried


def test_best_over_tiles_prunes_oversized_and_overfine(plat):
    # nb >= n pruned entirely -> error when nothing remains
    with pytest.raises(BenchmarkError):
        best_over_tiles("xkblas", "gemm", 512, plat, tiles=(1024,))
    # n/nb > 32 pruned for tractability
    best = best_over_tiles("xkblas", "gemm", 40960, plat, tiles=(1024, 2048))
    assert 1024 not in best.tried


def test_safe_point_returns_none_for_unsupported(plat):
    assert safe_point("blasx", "syrk", 4096, plat, tiles=(1024,)) is None
    assert safe_point("xkblas", "gemm", 4096, plat, tiles=(1024,)) is not None


def test_safe_point_records_benchmark_skip():
    # No valid tile size (nb >= n prunes everything): the point is skipped,
    # not fatal, and the skip lands in the caller's notes.
    notes: list[str] = []
    assert safe_point("xkblas", "gemm", 512, tiles=(1024,), notes=notes) is None
    assert notes and notes[0].startswith("skipped xkblas/gemm N=512")


def test_tile_specs_enumeration():
    specs = tile_specs("xkblas", "gemm", 8192, tiles=(1024, 2048, 16384))
    assert [s.nb for s in specs] == [1024, 2048]  # nb >= n pruned
    assert all(s.library == "xkblas" and s.n == 8192 for s in specs)
    assert tile_specs("xkblas", "gemm", 512, tiles=(1024,)) == ()


def test_best_over_tiles_rejects_a_hand_built_platform():
    # Sweeps run over handles only; one cell on a hand-built platform is
    # run_point's job, and the error says so.
    with pytest.raises(TypeError, match="run_point"):
        best_over_tiles("xkblas", "gemm", 8192, make_dgx1(4), tiles=(1024,))


def test_series_to_rows_layout():
    rows = series_to_rows([1, 2], {"a": {1: 1.0, 2: 2.0}, "b": {1: None, 2: 3.0}})
    assert rows == [[1, 1.0, "-"], [2, 2.0, 3.0]]


def test_experiment_result_render_and_checks():
    res = ExperimentResult(
        experiment="X",
        title="t",
        columns=["n", "v"],
        rows=[[1, 2.0]],
        checks={"ok": True, "bad": False},
    )
    text = res.render()
    assert "check [PASS] ok" in text and "check [FAIL] bad" in text
    assert not res.all_checks_pass


def test_scenario_device_uses_dod_tiles(plat):
    best = best_over_tiles("xkblas", "gemm", 8192, plat, scenario="device")
    assert best.nb in (2048, 1024, 512)  # dod rule candidates for 4 GPUs
