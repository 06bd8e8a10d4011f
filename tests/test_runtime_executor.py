"""Tests for the executor and the Runtime facade."""

import numpy as np
import pytest

from repro import Runtime, RuntimeOptions
from repro.errors import SchedulingError
from repro.memory.layout import BlockCyclicDistribution
from repro.memory.matrix import Matrix
from repro.runtime.access import Access, AccessMode
from repro.runtime.task import Task
from repro.sim.trace import TraceCategory
from tests.access_lists import make_access_list
from tests.directory_views import valid_devices


def make_runtime(platform, **opts) -> Runtime:
    return Runtime(platform, RuntimeOptions(**opts))


def simple_task(part, i, j, reads=(), flops=1e9, kernel=None):
    return Task(
        name="k",
        accesses=make_access_list(reads=reads, readwrites=[part[(i, j)]]),
        flops=flops,
        dim=1024,
        kernel=kernel,
    )


def test_single_task_executes(dgx1_small):
    rt = Runtime(dgx1_small)
    part = rt.partition(Matrix.meta(2048, 2048), 1024)
    t = rt.submit(simple_task(part, 0, 0))
    makespan = rt.sync()
    assert t.state == "done"
    assert t.device is not None
    assert makespan >= t.end_time - 1e-12
    assert rt.executor.completed_tasks == 1


def test_dependent_tasks_serialize_in_time(dgx1_small):
    rt = Runtime(dgx1_small)
    part = rt.partition(Matrix.meta(2048, 2048), 1024)
    t1 = rt.submit(simple_task(part, 0, 0))
    t2 = rt.submit(simple_task(part, 0, 0))  # RW same tile
    rt.sync()
    assert t2.start_time >= t1.end_time


def test_independent_tasks_overlap_across_devices(dgx1_small):
    rt = Runtime(dgx1_small)
    part = rt.partition(Matrix.meta(4096, 4096), 1024)
    tasks = [rt.submit(simple_task(part, i, j, flops=5e10)) for i in range(4) for j in range(4)]
    rt.sync()
    devices = {t.device for t in tasks}
    assert len(devices) == 4  # all GPUs participated
    # At least two kernels overlap in virtual time.
    spans = sorted((t.start_time, t.end_time) for t in tasks)
    assert any(b_start < a_end for (a_start, a_end), (b_start, b_end) in zip(spans, spans[1:]))


def test_kernel_waits_for_inputs(dgx1_small):
    rt = Runtime(dgx1_small)
    part = rt.partition(Matrix.meta(4096, 4096), 2048)
    t = rt.submit(simple_task(part, 0, 0, reads=[part[(1, 0)], part[(0, 1)]]))
    rt.sync()
    h2d = [iv for iv in rt.trace if iv.category is TraceCategory.MEMCPY_HTOD]
    assert h2d and t.start_time >= max(iv.end for iv in h2d) - 1e-12


def test_numeric_kernel_runs_on_device_arrays(dgx1_small):
    rt = Runtime(dgx1_small)
    mat = Matrix.zeros(64, 64)
    part = rt.partition(mat, 32)

    def kern(c):
        c += 7.0

    t = Task(
        name="incr",
        accesses=[Access(part[(0, 0)], AccessMode.READWRITE)],
        flops=1.0,
        dim=32,
        kernel=kern,
    )
    rt.submit(t)
    rt.memory_coherent_async(mat)
    rt.sync()
    arr = mat.to_array()
    assert np.all(arr[:32, :32] == 7.0)
    assert np.all(arr[32:, :] == 0.0)


def test_flush_waits_for_writer(dgx1_small):
    rt = Runtime(dgx1_small)
    mat = Matrix.meta(2048, 2048)
    part = rt.partition(mat, 1024)
    w = rt.submit(simple_task(part, 0, 0, flops=1e11))
    rt.memory_coherent_async(mat)
    rt.sync()
    d2h = [iv for iv in rt.trace if iv.category is TraceCategory.MEMCPY_DTOH]
    assert len(d2h) == 1  # only the written tile needs a write-back
    assert d2h[0].start >= w.end_time - 1e-12
    assert rt.directory.host_valid(rt.directory.lookup(part[(0, 0)].key))


def test_task_submission_overhead_spaces_submissions(dgx1_small):
    overhead = 1e-3
    rt = make_runtime(dgx1_small, task_overhead=overhead)
    part = rt.partition(Matrix.meta(4096, 4096), 1024)
    tasks = [rt.submit(simple_task(part, i, 0, flops=1.0)) for i in range(4)]
    rt.sync()
    # Task i cannot start before its submission instant (i+1) * overhead.
    for i, t in enumerate(tasks):
        assert t.start_time >= (i + 1) * overhead - 1e-12


def test_write_only_task_skips_input_transfer(dgx1_small):
    rt = Runtime(dgx1_small)
    part = rt.partition(Matrix.meta(2048, 2048), 1024)
    t = Task(
        name="w",
        accesses=[Access(part[(0, 0)], AccessMode.WRITE)],
        flops=1e9,
        dim=1024,
    )
    rt.submit(t)
    rt.sync()
    assert rt.transfer.stats()["h2d"] == 0
    assert rt.directory.modified_location(rt.directory.lookup(part[(0, 0)].key)) == t.device


def test_no_overlap_mode_serializes_transfer_and_kernel(dgx1_small):
    rt_overlap = make_runtime(dgx1_small, overlap=True)
    rt_serial = make_runtime(dgx1_small, overlap=False)
    for rt in (rt_overlap, rt_serial):
        part = rt.partition(Matrix.meta(8192, 8192), 2048)
        for i in range(4):
            for j in range(4):
                rt.submit(
                    simple_task(part, i, j, reads=[part[(j, i)]] if i != j else (), flops=1e10)
                )
        rt.sync()
    assert rt_serial.sim.now > rt_overlap.sim.now


def test_retain_inputs_false_drops_clean_replicas(dgx1_small):
    rt = make_runtime(dgx1_small, retain_inputs=False)
    part = rt.partition(Matrix.meta(4096, 4096), 1024)
    t = rt.submit(simple_task(part, 0, 0, reads=[part[(1, 1)]]))
    rt.sync()
    # The read tile was dropped after the task; the written one stays.
    d = rt.directory
    assert not valid_devices(d, d.lookup(part[(1, 1)].key))
    assert valid_devices(d, d.lookup(part[(0, 0)].key)) == [t.device]


def test_distribute_seed_places_tiles(dgx1_small):
    rt = Runtime(dgx1_small)
    mat = Matrix.meta(4096, 4096)
    dist = BlockCyclicDistribution(2, 2)
    part = rt.distribute_2d_block_cyclic_async(mat, 1024, dist, upload=False)
    d = rt.directory
    for tile in part:
        tid = d.lookup(tile.key)
        assert d.modified_location(tid) == dist.owner(tile.i, tile.j)
        assert not d.host_valid(tid)


def test_distribute_upload_transfers(dgx1_small):
    rt = Runtime(dgx1_small)
    mat = Matrix.meta(4096, 4096)
    dist = BlockCyclicDistribution(2, 2)
    rt.distribute_2d_block_cyclic_async(mat, 1024, dist, upload=True)
    rt.sim.run()
    assert rt.transfer.stats()["h2d"] == 16
    assert rt.fabric.host_bytes_total() == mat.nbytes


def test_stats_shape(dgx1_small):
    rt = Runtime(dgx1_small)
    part = rt.partition(Matrix.meta(2048, 2048), 1024)
    rt.submit(simple_task(part, 0, 0))
    rt.sync()
    stats = rt.stats()
    assert set(stats) >= {"makespan", "tasks", "transfers", "caches", "steals"}


def test_unknown_scheduler_rejected(dgx1_small):
    with pytest.raises(SchedulingError):
        make_runtime(dgx1_small, scheduler="nope")
    with pytest.raises(SchedulingError):
        make_runtime(dgx1_small, eviction="nope")


def test_sync_idempotent_and_composable(dgx1_small):
    rt = Runtime(dgx1_small)
    part = rt.partition(Matrix.meta(2048, 2048), 1024)
    rt.submit(simple_task(part, 0, 0))
    first = rt.sync()
    assert rt.sync() == first  # nothing new
    rt.submit(simple_task(part, 0, 0))
    assert rt.sync() > first
