"""Tests for RuntimeOptions knobs not covered elsewhere."""

import pytest

from repro import Runtime, RuntimeOptions
from repro.blas.tiled import build_gemm
from repro.errors import SchedulingError
from repro.memory.matrix import Matrix


def run_gemm(dgx1_small, **opts):
    rt = Runtime(dgx1_small, RuntimeOptions(**opts))
    mats = [Matrix.meta(4096, 4096, name=x) for x in "ABC"]
    parts = [rt.partition(m, 1024) for m in mats]
    for t in build_gemm(1.0, parts[0], parts[1], 0.0, parts[2]):
        rt.submit(t)
    rt.memory_coherent_async(mats[2], 1024)
    rt.sync()
    return rt


def test_trace_disabled_records_nothing(dgx1_small):
    rt = run_gemm(dgx1_small, trace=False)
    assert len(rt.trace) == 0
    assert rt.sim.now > 0  # timing still works


def test_cache_fraction_scales_capacity(dgx1_small):
    small = Runtime(dgx1_small, RuntimeOptions(cache_fraction=0.5))
    big = Runtime(dgx1_small, RuntimeOptions(cache_fraction=0.9))
    assert small.caches[0].capacity < big.caches[0].capacity
    assert small.caches[0].capacity == int(
        dgx1_small.gpus[0].memory_bytes * 0.5
    )


def test_pipeline_window_one_serializes_per_device(dgx1_small):
    deep = run_gemm(dgx1_small, pipeline_window=8)
    shallow = run_gemm(dgx1_small, pipeline_window=1)
    # Without lookahead, transfers cannot prefetch behind the running kernel.
    assert shallow.sim.now >= deep.sim.now


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("field", ["pipeline_window", "stream_window"])
def test_window_below_one_is_refused(dgx1_small, field, value):
    """A window that admits no task is refused when the runtime is built,
    not after a run that completes nothing."""
    with pytest.raises(SchedulingError, match=f"{field}={value}"):
        Runtime(dgx1_small, RuntimeOptions(**{field: value}))


def test_task_overhead_shifts_start_times(dgx1_small):
    fast = run_gemm(dgx1_small, task_overhead=1e-7)
    # 1 ms per task makes submission the bottleneck (80 tasks ≈ 80 ms).
    slow = run_gemm(dgx1_small, task_overhead=1e-3)
    assert slow.sim.now > fast.sim.now


def test_default_options_are_xkblas_shaped():
    opts = RuntimeOptions()
    from repro.runtime.policies import SourcePolicy

    assert opts.source_policy is SourcePolicy.TOPOLOGY_OPTIMISTIC
    assert opts.scheduler == "xkaapi-locality-ws"
    assert opts.eviction == "read-only-first"
    assert opts.overlap and opts.retain_inputs
    assert opts.pinning_bandwidth is None  # paper methodology
