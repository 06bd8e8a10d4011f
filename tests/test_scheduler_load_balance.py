"""Tests for the load-aware work-stealing behaviours added for TRMM-shaped
graphs (MODIFIED-only owner binding + load-adaptive push)."""

import pytest

from repro import Runtime
from repro.memory.matrix import Matrix
from repro.runtime.scheduler import LocalityWorkStealing
from repro.runtime.task import Task, make_access_list
from repro.topology.dgx1 import make_dgx1


@pytest.fixture()
def ctx4():
    rt = Runtime(make_dgx1(4))
    part = rt.partition(Matrix.meta(4096, 4096), 1024)
    return rt, part, rt.executor.ctx


def mk(part, i, j, hint=None):
    return Task(
        name="t",
        accesses=make_access_list(readwrites=[part[(i, j)]]),
        flops=1e9,
        dim=1024,
        owner_hint=hint,
    )


def test_shared_replica_does_not_bind(ctx4):
    """Only MODIFIED replicas bind; SHARED ones leave the task stealable."""
    rt, part, c = ctx4
    tile = part[(0, 0)]
    rt.directory.seed_device(rt.directory.lookup(tile.key), 2, exclusive=False)  # SHARED
    rt.caches[2].insert(tile.key, tile.nbytes)
    ws = LocalityWorkStealing(4)
    ws.push(mk(part, 0, 0), c)
    assert ws.queue_sizes() == [0, 0, 0, 0]  # went to the host queue
    assert ws.pending() == 1


def test_modified_replica_binds(ctx4):
    rt, part, c = ctx4
    tile = part[(1, 1)]
    rt.directory.seed_device(rt.directory.lookup(tile.key), 3, exclusive=True)  # MODIFIED
    rt.caches[3].insert(tile.key, tile.nbytes)
    ws = LocalityWorkStealing(4)
    ws.push(mk(part, 1, 1), c)
    assert ws.queue_sizes()[3] == 1


def test_loaded_owner_releases_to_shared_queue(ctx4):
    """When the owner's compute backlog dwarfs a starving peer, the chain
    successor goes to the shared queue instead of the owner's deque."""
    rt, part, c = ctx4
    tile = part[(0, 0)]
    rt.directory.seed_device(rt.directory.lookup(tile.key), 0, exclusive=True)
    rt.caches[0].insert(tile.key, tile.nbytes)
    loads = [1.0, 0.0, 0.0, 0.0]  # owner 1s ahead; others idle
    c.device_load = loads.__getitem__
    c.device_loads = lambda: loads
    ws = LocalityWorkStealing(4)
    ws.push(mk(part, 0, 0), c)
    assert ws.queue_sizes() == [0, 0, 0, 0]
    assert ws.pending() == 1  # stealable by the idle peers


def test_balanced_load_keeps_owner_binding(ctx4):
    rt, part, c = ctx4
    tile = part[(0, 0)]
    rt.directory.seed_device(rt.directory.lookup(tile.key), 0, exclusive=True)
    rt.caches[0].insert(tile.key, tile.nbytes)
    c.device_load = lambda dev: 1.0  # everyone equally busy
    c.device_loads = lambda: [1.0] * 4
    ws = LocalityWorkStealing(4)
    ws.push(mk(part, 0, 0), c)
    assert ws.queue_sizes()[0] == 1


def test_trmm_no_longer_starves_devices(dgx1):
    """End-to-end: every GPU participates in a coarse-tiled TRMM (the
    pathology that motivated these changes left 3 of 8 GPUs idle)."""
    from repro.bench.harness import run_point

    res = run_point("xkblas", "trmm", 40960, 4096, dgx1, keep_runtime=True)
    busy = [res.runtime.trace.device_busy_time(d) for d in range(8)]
    assert min(busy) > 0.25 * max(busy)


def test_executor_wires_device_load(dgx1_small):
    rt = Runtime(dgx1_small)
    ctx = rt.executor.ctx
    assert all(ctx.device_load(d) == 0.0 for d in range(4))
    part = rt.partition(Matrix.meta(2048, 2048), 1024)
    rt.submit(mk(part, 0, 0))
    rt.sync()
    assert all(ctx.device_load(d) >= 0.0 for d in range(4))
