"""Tests for the scheduling policies."""

import pytest

from repro import Runtime
from repro.errors import SchedulingError
from repro.memory.layout import BlockCyclicDistribution
from repro.memory.matrix import Matrix
from repro.runtime.scheduler import (
    DmdaScheduler,
    LocalityWorkStealing,
    OwnerComputesScheduler,
)
from repro.runtime.task import Task, make_access_list
from repro.topology.dgx1 import make_dgx1


@pytest.fixture()
def ctx():
    rt = Runtime(make_dgx1(4))
    mat = Matrix.meta(4096, 4096)
    part = rt.partition(mat, 1024)
    return rt, part, rt.executor.ctx


def make_task(part, i, j, reads=(), hint=None):
    t = Task(
        name="t",
        accesses=make_access_list(reads=reads, readwrites=[part[(i, j)]]),
        flops=1e9,
        dim=1024,
        owner_hint=hint,
    )
    return t


# --------------------------------------------------------- work stealing


def test_ws_fresh_tasks_go_to_host_queue(ctx):
    rt, part, c = ctx
    ws = LocalityWorkStealing(4)
    ws.push(make_task(part, 0, 0), c)
    assert ws.pending() == 1
    assert ws.queue_sizes() == [0, 0, 0, 0]


def test_ws_owner_computes_placement(ctx):
    rt, part, c = ctx
    tile = part[(0, 0)]
    rt.directory.seed_device(rt.directory.lookup(tile.key), 2, exclusive=True)
    ws = LocalityWorkStealing(4)
    ws.push(make_task(part, 0, 0), c)
    assert ws.queue_sizes()[2] == 1


def test_ws_owner_hint_wins(ctx):
    rt, part, c = ctx
    ws = LocalityWorkStealing(4)
    ws.push(make_task(part, 0, 0, hint=3), c)
    assert ws.queue_sizes()[3] == 1


def test_ws_own_deque_pops_lifo(ctx):
    rt, part, c = ctx
    ws = LocalityWorkStealing(4)
    t1, t2 = make_task(part, 0, 0, hint=0), make_task(part, 0, 1, hint=0)
    ws.push(t1, c)
    ws.push(t2, c)
    assert ws.pop(0, c) is t2  # newest first
    assert ws.pop(0, c) is t1


def test_ws_idle_steals_fifo_from_host_queue(ctx):
    rt, part, c = ctx
    ws = LocalityWorkStealing(4)
    t1, t2 = make_task(part, 0, 0), make_task(part, 0, 1)
    ws.push(t1, c)
    ws.push(t2, c)
    assert ws.pop(1, c, idle=True) is t1  # oldest first
    assert ws.steals == 1


def test_ws_busy_worker_does_not_steal(ctx):
    rt, part, c = ctx
    ws = LocalityWorkStealing(4)
    ws.push(make_task(part, 0, 0), c)
    assert ws.pop(1, c, idle=False) is None
    assert ws.pending() == 1


def test_ws_steals_from_richest_peer(ctx):
    rt, part, c = ctx
    ws = LocalityWorkStealing(4)
    for j in range(3):
        ws.push(make_task(part, 0, j, hint=2), c)
    ws.push(make_task(part, 1, 0, hint=1), c)
    stolen = ws.pop(0, c, idle=True)
    assert stolen.owner_hint == 2  # richest deque (device 2)


def test_ws_empty_pop_returns_none(ctx):
    rt, part, c = ctx
    ws = LocalityWorkStealing(4)
    assert ws.pop(0, c) is None


# ------------------------------------------------------------------ dmda


def test_dmda_prefers_device_with_resident_data(ctx):
    rt, part, c = ctx
    reads = [part[(1, 0)], part[(1, 1)]]
    for tile in reads:
        rt.directory.seed_device(rt.directory.lookup(tile.key), 3, exclusive=False)
        rt.caches[3].insert(tile.key, tile.nbytes)
    dmda = DmdaScheduler(4)
    dmda.push(make_task(part, 0, 0, reads=reads), c)
    assert dmda.pop(3, c) is not None
    assert all(dmda.pop(d, c) is None for d in (0, 1, 2))


def test_dmda_balances_queue_lengths(ctx):
    rt, part, c = ctx
    dmda = DmdaScheduler(4)
    for j in range(4):
        dmda.push(make_task(part, 0, j), c)
    served = sum(dmda.pop(d, c) is not None for d in range(4))
    assert served == 4  # one task per device, no pile-up


def test_dmda_pop_respects_priority(ctx):
    rt, part, c = ctx
    dmda = DmdaScheduler(1)
    low = make_task(part, 0, 0)
    high = make_task(part, 0, 1)
    low.priority, high.priority = 1, 10
    dmda.push(low, c)
    dmda.push(high, c)
    assert dmda.pop(0, c) is high


# --------------------------------------------------------- owner-computes


def test_owner_computes_by_distribution(ctx):
    """A static distribution reaches the scheduler as each task's hint."""
    rt, part, c = ctx
    dist = BlockCyclicDistribution(2, 2)
    sched = OwnerComputesScheduler(4)
    t = make_task(part, 1, 1, hint=dist.owner(1, 1))
    sched.push(t, c)
    assert sched.pop(dist.owner(1, 1), c) is t


def test_owner_computes_requires_hint_without_distribution(ctx):
    rt, part, c = ctx
    sched = OwnerComputesScheduler(4)
    with pytest.raises(SchedulingError):
        sched.push(make_task(part, 0, 0), c)
    sched.push(make_task(part, 0, 0, hint=2), c)
    assert sched.pop(2, c) is not None


def test_owner_computes_out_of_range_owner(ctx):
    rt, part, c = ctx
    sched = OwnerComputesScheduler(2)
    with pytest.raises(SchedulingError):
        sched.push(make_task(part, 0, 0, hint=5), c)
