"""Tests for the benchmark harness, workloads and experiment plumbing."""

import inspect

import pytest

from repro.bench.cellspec import PlatformHandle
from repro.bench.executor import SweepExecutor
from repro.bench.harness import (
    BestTileResult,
    ExperimentResult,
    best_over_tiles,
    best_tiles,
    dod_tile_size,
    run_point,
    series_to_rows,
    tile_candidates,
    tile_specs,
)
from repro.bench.workloads import matrices_for, paper_sizes
from repro.blas.routines import ROUTINES as BLAS3
from repro.errors import BenchmarkError
from repro.topology.dgx1 import make_dgx1


ROUTINES = ["gemm", "symm", "syrk", "syr2k", "trmm", "trsm", "hemm", "herk", "her2k"]


@pytest.fixture(scope="module")
def plat():
    return PlatformHandle("dgx1", 4)


# -------------------------------------------------------------- workloads


def test_paper_sizes():
    assert max(paper_sizes()) >= 49152
    assert set(paper_sizes(fast=True)) <= set(range(1, 10**6))
    assert len(paper_sizes(fast=True)) < len(paper_sizes())


@pytest.mark.parametrize("routine", ROUTINES)
def test_matrices_for_all_routines(routine):
    mats = matrices_for(routine, 256)
    assert list(mats) == list(BLAS3[routine].operands)
    assert all(not m.numeric and (m.m, m.n) == (256, 256) for m in mats.values())
    assert "alpha" in BLAS3[routine].defaults


@pytest.mark.parametrize("routine", ROUTINES)
def test_routine_parameter_names_match_workload_keys(routine):
    """Each routine-table row's builder binds its defaults plus operands, the
    names ``call_async`` and ``repro.verify``'s graph builder pass by keyword,
    and its flop count reads them."""
    row = BLAS3[routine]
    names = dict.fromkeys([*row.defaults, *row.operands])
    inspect.signature(row.build).bind(**names)
    assert row.flops(**{**row.defaults, **matrices_for(routine, 64)}) > 0


def test_matrices_for_unknown_routine():
    with pytest.raises(BenchmarkError):
        matrices_for("getrf", 64)
    with pytest.raises(BenchmarkError, match="unknown routine"):
        run_point("xkblas", "getrf", 4096, 1024)


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
    with SweepExecutor(jobs=1) as ex:
        best = best_over_tiles("xkblas", "gemm", 8192, plat, tiles=(1024, 2048), executor=ex)
        tried = ex.evaluate(tile_specs("xkblas", "gemm", 8192, plat, tiles=(1024, 2048)))
    assert isinstance(best, BestTileResult)
    assert [spec.nb for spec in tried] == [1024, 2048]
    assert best.tflops == max(o.tflops for o in tried.values())
    assert tried[best.spec] == best.outcome
    assert best.spec.nb == best.nb and best.outcome.ok


def test_best_over_tiles_prunes_oversized_and_overfine(plat):
    # nb >= n pruned entirely -> a missing point when nothing remains
    assert best_over_tiles("xkblas", "gemm", 512, plat, tiles=(1024,)) is None
    # n/nb > 32 pruned for tractability
    specs = tile_specs("xkblas", "gemm", 40960, plat, tiles=(1024, 2048))
    assert [spec.nb for spec in specs] == [2048]
    assert best_over_tiles("xkblas", "gemm", 40960, plat, tiles=(1024, 2048)).nb == 2048


def test_best_tiles_unsupported_routine_is_a_missing_point(plat):
    unsupported, supported = ("blasx", "syrk", 4096, "host"), ("xkblas", "gemm", 4096, "host")
    best = best_tiles([unsupported, supported], plat, tiles=(1024,))
    assert list(best) == [unsupported, supported]
    assert best[unsupported] is None
    assert best[supported] is not None


def test_best_tiles_notes_a_point_with_no_admissible_tile():
    # No valid tile size (nb >= n prunes everything): the point is skipped,
    # not fatal, and the skip lands in the caller's notes, naming the
    # candidates it pruned, for the default ladder too.
    notes: list[str] = []
    point = ("xkblas", "gemm", 512, "host")
    assert best_tiles([point], notes=notes) == {point: None}
    assert best_tiles([point], tiles=(1024,), notes=notes) == {point: None}
    assert notes[0].startswith("skipped xkblas/gemm N=512")
    assert "among (1024, 2048, 4096)" in notes[0]
    assert "among (1024,)" in notes[1]


def test_a_figure_that_needs_every_point_names_the_missing_one():
    # Fig. 3 compares every point; one below the tile ladder (N=2048 with
    # the --fast ladder 2048/4096) is a BenchmarkError naming the point.
    from repro.bench.experiments import fig3_heuristics

    with pytest.raises(BenchmarkError, match="'xkblas', 'gemm', 2048, 'host'"):
        fig3_heuristics.run(fast=True, sizes=(2048,), routines=("gemm",))


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
    with pytest.raises(TypeError, match="run_point"):
        best_tiles([("xkblas", "gemm", 8192, "host")], make_dgx1(4), tiles=(1024,))


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
