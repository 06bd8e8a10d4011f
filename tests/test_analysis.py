"""Tests for the post-mortem analysis module."""

import pytest

from repro import Runtime
from repro.bench.harness import run_point
from repro.memory.matrix import Matrix
from repro.runtime.task import Task
from repro.sim.analysis import analyze, critical_path, load_imbalance, overlap_efficiency
from repro.sim.trace import TraceCategory, TraceRecorder
from tests.access_lists import make_access_list


def chain_runtime(dgx1_small, length=5):
    rt = Runtime(dgx1_small)
    part = rt.partition(Matrix.meta(1024, 1024), 1024)
    tile = part[(0, 0)]
    for i in range(length):
        rt.submit(
            Task(
                name=f"t{i}",
                accesses=make_access_list(readwrites=[tile]),
                flops=1e9,
                dim=1024,
            )
        )
    rt.sync()
    return rt


def test_critical_path_of_pure_chain(dgx1_small):
    rt = chain_runtime(dgx1_small, length=5)
    cp, chain = critical_path(rt.executor.graph)
    assert len(chain) == 5
    kernel_sum = sum(t.duration for t in rt.executor.graph.tasks)
    assert cp == pytest.approx(kernel_sum)
    report = analyze(rt)
    assert report["dependency_limited"] is True
    assert report["critical_path_tasks"] == 5


def test_critical_path_of_parallel_tasks(dgx1_small):
    rt = Runtime(dgx1_small)
    part = rt.partition(Matrix.meta(4096, 4096), 1024)
    for i in range(4):
        for j in range(4):
            rt.submit(
                Task(
                    name="p",
                    accesses=make_access_list(readwrites=[part[(i, j)]]),
                    flops=1e9,
                    dim=1024,
                )
            )
    rt.sync()
    cp, chain = critical_path(rt.executor.graph)
    assert len(chain) == 1  # no dependencies: the path is one task
    assert cp < sum(t.duration for t in rt.executor.graph.tasks)


def test_critical_path_empty_graph(dgx1_small):
    rt = Runtime(dgx1_small)
    assert critical_path(rt.executor.graph) == (0.0, [])


def test_overlap_efficiency_bounds():
    tr = TraceRecorder()
    # transfer fully under a kernel -> hidden
    tr.record(TraceCategory.KERNEL, 0, 0.0, 10.0)
    tr.record(TraceCategory.MEMCPY_HTOD, 0, 2.0, 4.0)
    assert overlap_efficiency(tr, 0) == pytest.approx(1.0)
    # second transfer fully exposed
    tr.record(TraceCategory.MEMCPY_HTOD, 0, 20.0, 24.0)
    assert overlap_efficiency(tr, 0) == pytest.approx(2.0 / 6.0)
    # device with no transfers: perfectly overlapped by definition
    assert overlap_efficiency(tr, 3) == 1.0


def test_load_imbalance_metric():
    tr = TraceRecorder()
    tr.record(TraceCategory.KERNEL, 0, 0.0, 4.0)
    tr.record(TraceCategory.KERNEL, 1, 0.0, 2.0)
    assert load_imbalance(tr, [0, 1]) == pytest.approx((4 - 2) / 3)
    assert load_imbalance(TraceRecorder(), [0, 1]) == 0.0


def test_analyze_real_gemm_run(dgx1_small):
    res = run_point("xkblas", "gemm", 8192, 1024, dgx1_small, keep_runtime=True)
    report = analyze(res.runtime)
    assert 0 < report["critical_path_s"] <= report["makespan_s"] * 1.001
    assert 0 <= report["transfer_share"] < 1
    assert set(report["overlap_efficiency"]) == set(range(4))
    assert all(0 <= v <= 1 for v in report["overlap_efficiency"].values())
    # A 8x8-tile GEMM on 4 GPUs is resource-limited, not dependency-limited.
    assert not report["dependency_limited"]
