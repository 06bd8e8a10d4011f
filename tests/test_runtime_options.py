"""Tests for RuntimeOptions knobs not covered elsewhere."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro import Runtime, RuntimeOptions
from repro.blas.tiled import build_gemm
from repro.errors import DeviceOutOfMemoryError, ReproError, SchedulingError
from repro.memory.matrix import Matrix
from repro.topology.dgx1 import make_dgx1


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


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("pipeline_window", 0),
        ("pipeline_window", -1),
        ("cache_fraction", 1.5),
        ("cache_fraction", 0.0),
        ("task_overhead", -1e-3),
        ("pop_overhead", -1e-3),
        ("pinning_bandwidth", 0),
        ("pinning_bandwidth", -1),
    ],
)
def test_window_below_one_is_refused(dgx1_small, field, value):
    """An option that cannot run (a window that admits no task, a cache
    larger than the device, a negative overhead or pinning bandwidth) is
    refused when the runtime is built, not mid-run or after a run that
    completes nothing."""
    with pytest.raises(SchedulingError, match=re.escape(f"{field}={value}")):
        Runtime(dgx1_small, RuntimeOptions(**{field: value}))


TILE = 256 * 256 * 8  # bytes of one of the 12 tiles of the 512x512 GEMM below


@settings(max_examples=100, deadline=None)
@given(
    pipeline_window=st.integers(-1, 8),
    streaming=st.booleans(),
    cache_fraction=st.floats(-0.25, 1.5),
    task_overhead=st.floats(-1e-4, 1e-3),
    pop_overhead=st.floats(-1e-4, 1e-3),
    pinning_bandwidth=st.none() | st.floats(-1e9, 1e10),
)
def test_options_either_refused_or_run_every_task(**fields):
    """Any options either fail at construction (with a typed error: a
    fraction that rounds the cache to 0 bytes is the cache's own
    ``CoherenceError``) or complete every task of a 2-GPU 512x512 GEMM
    (nb=256): eight tasks plus four result flushes."""
    try:
        rt = Runtime(make_dgx1(2), RuntimeOptions(**fields))
    except ReproError:
        return
    mats = [Matrix.meta(512, 512, name=x) for x in "ABC"]
    parts = [rt.partition(m, 256) for m in mats]
    tasks = build_gemm(1.0, parts[0], parts[1], 0.0, parts[2])
    if fields["streaming"]:
        rt.submit_stream(tasks)
    else:
        for task in tasks:
            rt.submit(task)
    rt.memory_coherent_async(mats[2], 256)
    try:
        rt.sync()
    except DeviceOutOfMemoryError:
        # A cache smaller than the problem can run out of evictable memory:
        # a limit of this problem's size, not an option that cannot run.
        assert rt.caches[0].capacity < 12 * TILE
        return
    assert rt.stats()["tasks"] == 12


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
