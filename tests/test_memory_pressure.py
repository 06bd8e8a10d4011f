"""Eviction under memory pressure, end to end and numerically.

Device memories are shrunk until the working set cannot stay resident, so the
runtime must evict (clean drops + dirty write-backs) mid-computation.  Results
must remain numerically exact — the strongest check that coherence, eviction
and the data store cooperate.
"""

import numpy as np
import pytest

from repro import Runtime, RuntimeOptions
from repro.blas.tiled import build_gemm
from repro.errors import DeviceOutOfMemoryError
from repro.memory.matrix import Matrix
from repro.topology.device import GpuSpec
from repro.topology.link import Link, LinkKind
from repro.topology.platform import Platform
from tests.blas_reference import ref_gemm


def tiny_platform(memory_tiles: int, nb: int = 32, wordsize: int = 8):
    """Two GPUs whose memory holds only ``memory_tiles`` tiles each."""
    capacity = int(memory_tiles * nb * nb * wordsize / 0.92) + 1
    gpu = GpuSpec(name="tiny", memory_bytes=capacity)
    return Platform(
        name="tiny",
        gpus=[gpu, gpu],
        links=[Link(0, 1, LinkKind.NVLINK_DOUBLE), Link(1, 0, LinkKind.NVLINK_DOUBLE)],
        pcie_switch_groups=[(0, 1)],
    )


def run_gemm(platform, n=160, nb=32, eviction="read-only-first"):
    rt = Runtime(platform, RuntimeOptions(eviction=eviction, pipeline_window=2))
    a = Matrix.random(n, n, seed=1, name="A")
    b = Matrix.random(n, n, seed=2, name="B")
    c = Matrix.random(n, n, seed=3, name="C")
    c0 = c.to_array().copy()
    pa, pb, pc = (rt.partition(m, nb) for m in (a, b, c))
    for t in build_gemm(1.0, pa, pb, 0.3, pc):
        rt.submit(t)
    rt.memory_coherent_async(c, nb)
    rt.sync()
    return rt, c, ref_gemm(1.0, a.to_array(), b.to_array(), 0.3, c0)


@pytest.mark.parametrize("eviction", ["read-only-first", "lru", "blasx-2level"])
def test_numeric_correctness_under_eviction(eviction):
    """A 5x5-tile GEMM on GPUs holding only 8 tiles: heavy eviction churn."""
    plat = tiny_platform(memory_tiles=8)
    rt, c, expect = run_gemm(plat, eviction=eviction)
    evictions = sum(cache.evictions for cache in rt.caches.values())
    assert evictions > 0, "the workload must actually overflow the cache"
    np.testing.assert_allclose(c.to_array(), expect, atol=1e-10)


def test_dirty_writeback_path_numerically_exact():
    """With capacity for barely two in-flight tasks (each pins up to 3 tiles
    plus outgoing-transfer source pins), dirty C tiles must be written back
    and refetched; the result stays exact."""
    plat = tiny_platform(memory_tiles=8)
    rt, c, expect = run_gemm(plat, n=160, nb=32)
    np.testing.assert_allclose(c.to_array(), expect, atol=1e-10)
    assert rt.transfer.stats()["d2h"] >= 25  # final flush + mid-run write-backs


def test_eviction_counts_scale_with_pressure():
    roomy, _, _ = run_gemm(tiny_platform(memory_tiles=80))
    tight, _, _ = run_gemm(tiny_platform(memory_tiles=8))
    ev_roomy = sum(c.evictions for c in roomy.caches.values())
    ev_tight = sum(c.evictions for c in tight.caches.values())
    assert ev_tight > ev_roomy


def test_impossible_working_set_raises():
    """If even a single task's tiles cannot fit, the run fails loudly
    rather than deadlocking."""
    plat = tiny_platform(memory_tiles=1)  # a task needs 3 tiles
    with pytest.raises(DeviceOutOfMemoryError):
        run_gemm(plat)


def test_pressure_slows_but_does_not_break_perf_mode():
    plat_roomy = tiny_platform(memory_tiles=80)
    plat_tight = tiny_platform(memory_tiles=8)

    def perf(plat):
        rt = Runtime(plat, RuntimeOptions(pipeline_window=2))
        a, b, c = (Matrix.meta(160, 160, name=x) for x in "ABC")
        pa, pb, pc = (rt.partition(m, 32) for m in (a, b, c))
        for t in build_gemm(1.0, pa, pb, 0.0, pc):
            rt.submit(t)
        rt.memory_coherent_async(c, 32)
        return rt.sync()

    assert perf(plat_tight) > perf(plat_roomy)
