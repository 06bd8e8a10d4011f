"""Tests for the sweep executor: dedup, caching, serial/parallel identity."""

import pytest

from repro.bench.cellspec import CellSpec, PlatformHandle
from repro.bench.executor import (
    SweepExecutor,
    default_executor,
    default_jobs,
    evaluate_cell,
    set_default_executor,
)
from repro.bench.experiments import fig3_heuristics
from repro.bench.harness import run_point, tile_specs
from repro.topology.dgx1 import make_dgx1

HANDLE = PlatformHandle("dgx1", 4)


def _specs():
    return list(
        tile_specs("xkblas", "gemm", 4096, HANDLE, tiles=(1024, 2048))
    )


def test_default_jobs_at_least_one():
    assert default_jobs() >= 1


def test_evaluate_dedupes_and_memoizes():
    with SweepExecutor(jobs=1) as ex:
        specs = _specs()
        outcomes = ex.evaluate(specs + specs)  # duplicates collapse
        assert ex.cells_simulated == len(specs)
        assert set(outcomes) == set(specs)
        again = ex.evaluate(specs)
        assert ex.cells_simulated == len(specs)  # all memo hits
        assert again == outcomes


def test_results_keyed_in_submission_order():
    with SweepExecutor(jobs=1) as ex:
        specs = _specs()
        assert list(ex.evaluate(reversed(specs))) == list(reversed(specs))
        assert list(ex.evaluate(specs)) == specs


def test_deterministic_failures_become_outcomes():
    # BLASX does not implement SYRK: a deterministic library failure must
    # cross the executor as data (ok=False), not as an exception.
    spec = CellSpec(library="blasx", routine="syrk", n=4096, nb=1024,
                    platform=HANDLE)
    with SweepExecutor(jobs=1) as ex:
        outcome = ex.evaluate_one(spec)
    assert outcome.ok is False
    assert outcome.error


def test_unknown_mode_raises():
    from repro.errors import BenchmarkError

    with pytest.raises(BenchmarkError, match="unknown cell mode"):
        evaluate_cell(
            CellSpec(library="xkblas", routine="gemm", n=4096, nb=1024,
                     platform=HANDLE, mode="trace")
        )


def test_executor_matches_direct_run_point():
    plat = make_dgx1(4)
    direct = run_point("xkblas", "gemm", 4096, 1024, plat)
    with SweepExecutor(jobs=1) as ex:
        spec = CellSpec(library="xkblas", routine="gemm", n=4096, nb=1024,
                        platform=HANDLE)
        cached = ex.evaluate_one(spec)
    assert cached.seconds == direct.seconds
    assert cached.tflops == direct.tflops


def test_set_default_executor_restores():
    original = default_executor()
    mine = SweepExecutor(jobs=1)
    previous = set_default_executor(mine)
    try:
        assert default_executor() is mine
    finally:
        set_default_executor(previous)
    assert default_executor() is original


def test_start_method_explicit_choice_validated():
    from repro.errors import BenchmarkError

    with SweepExecutor(jobs=2, start_method="spawn") as ex:
        assert ex._pick_start_method() == "spawn"
    with SweepExecutor(jobs=2, start_method="not-a-method") as ex:
        with pytest.raises(BenchmarkError, match="unavailable"):
            ex._pick_start_method()


def test_start_method_avoids_fork_with_live_threads(monkeypatch):
    # Forking with live threads (the asyncio server's dispatch threads)
    # clones locks mid-flight; the auto choice must fall back.
    import threading

    import repro.bench.executor as executor_mod

    with SweepExecutor(jobs=2) as ex:
        monkeypatch.setattr(executor_mod.threading, "active_count", lambda: 1)
        if "fork" in __import__("multiprocessing").get_all_start_methods():
            assert ex._pick_start_method() == "fork"
        monkeypatch.setattr(executor_mod.threading, "active_count", lambda: 3)
        assert ex._pick_start_method() in ("forkserver", "spawn")
    assert threading.active_count() >= 1  # the real function is untouched


def test_ensure_pool_single_instance_under_racing_threads(monkeypatch):
    # Concurrent evaluate_async batches can hit _ensure_pool simultaneously;
    # a check-then-create race would leak a pool of live worker processes.
    import threading

    import repro.bench.executor as executor_mod

    created = []

    class FakePool:
        def __init__(self, max_workers=None, mp_context=None):
            created.append(self)

        def shutdown(self):
            pass

    monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", FakePool)
    with SweepExecutor(jobs=2) as ex:
        barrier = threading.Barrier(8)
        pools = []

        def grab():
            barrier.wait()
            pools.append(ex._ensure_pool())

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(created) == 1
        assert all(pool is created[0] for pool in pools)


def test_evaluate_async_matches_sync():
    import asyncio

    with SweepExecutor(jobs=1) as ex:
        specs = _specs()
        sync_outcomes = ex.evaluate(specs)
        async_outcomes = asyncio.run(ex.evaluate_async(specs))
        assert async_outcomes == sync_outcomes
        assert ex.cells_simulated == len(specs)  # second pass was all memo hits


def test_parallel_results_bit_identical_to_serial():
    # The tentpole contract: --jobs N changes wall time, never numbers.
    # A reduced Fig. 3 slice (one routine, one size, all four curves) runs
    # through a 2-worker pool and must match the serial rows exactly.
    kwargs = dict(fast=True, sizes=(8192,), routines=("gemm",))
    with SweepExecutor(jobs=1) as serial_ex:
        serial = fig3_heuristics.run(executor=serial_ex, **kwargs)
    with SweepExecutor(jobs=2) as parallel_ex:
        parallel = fig3_heuristics.run(executor=parallel_ex, **kwargs)
    assert parallel.rows == serial.rows
    assert parallel.columns == serial.columns
    assert parallel_ex.cells_simulated == serial_ex.cells_simulated
