"""The batched transfer path: ``ensure_resident_batch``, ``_make_room``
eviction corner cases, and ``estimate_transfers`` / ``_select_source``
agreement.

These pin the bit-identity contract of the array-backed transfer overhaul:
the batch entry points must be op-for-op equivalent to the sequential calls
they replaced, and the read-only estimate must never price a different
source than the stateful pick.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Runtime, RuntimeOptions
from repro.errors import DeviceOutOfMemoryError
from repro.memory.matrix import Matrix
from repro.runtime.policies import SourcePolicy
from repro.topology.device import GpuSpec
from repro.topology.dgx1 import make_dgx1
from repro.topology.link import HOST, Link, LinkKind
from repro.topology.platform import Platform
from tests.directory_views import is_valid


def setup(policy=SourcePolicy.TOPOLOGY_OPTIMISTIC, num_gpus=8):
    rt = Runtime(make_dgx1(num_gpus), RuntimeOptions(source_policy=policy))
    mat = Matrix.meta(4096, 4096, name="A")
    part = rt.partition(mat, 1024)
    return rt, part


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


def tiny_setup(memory_tiles: int, nb: int = 32):
    rt = Runtime(tiny_platform(memory_tiles, nb=nb))
    mat = Matrix.meta(4 * nb, 4 * nb, name="A")
    part = rt.partition(mat, nb)
    return rt, part


# ---------------------------------------------------- ensure_resident_batch


def test_batch_misses_match_sequential_ensure_resident():
    """All-miss batch: same ready times, transfer stats and directory state
    as per-access ``ensure_resident`` calls on an identical runtime."""
    coords = [(0, 0), (0, 1), (1, 0)]
    rt_a, part_a = setup()
    rt_b, part_b = setup()

    accesses = [part_a[c].read_access for c in coords]
    ready, cost, pinned = rt_a.transfer.ensure_resident_batch(
        accesses, dst=0, now=0.0, inputs_ready=0.0
    )

    readies = [rt_b.transfer.ensure_resident(part_b[c], dst=0) for c in coords]
    expect_ready = 0.0
    expect_cost = 0.0
    for r in readies:
        if r > 0.0:
            expect_cost += r - 0.0
            if r > expect_ready:
                expect_ready = r
    assert ready == expect_ready
    assert cost == expect_cost
    assert rt_a.transfer.stats() == rt_b.transfer.stats()
    assert pinned == [part_a[c].key for c in coords]
    # The batch adds the launch pin atop the landing pin.
    for c in coords:
        assert rt_a.caches[0].pin_count(part_a[c].key) == 2

    rt_a.sim.run()
    rt_b.sim.run()
    for c in coords:
        assert is_valid(rt_a.directory, rt_a.directory.lookup(part_a[c].key), 0)
        assert is_valid(rt_b.directory, rt_b.directory.lookup(part_b[c].key), 0)


def test_batch_hit_path_pins_and_counts():
    rt, part = setup()
    tile = part[(0, 0)]
    rt.transfer.ensure_resident(tile, dst=0)
    rt.sim.run()
    hits_before = rt.caches[0].hits
    ready, cost, pinned = rt.transfer.ensure_resident_batch(
        [tile.read_access], dst=0, now=rt.sim.now, inputs_ready=rt.sim.now
    )
    assert ready == rt.sim.now and cost == 0.0
    assert pinned == [tile.key]
    assert rt.caches[0].hits == hits_before + 1
    assert rt.caches[0].pin_count(tile.key) == 1
    assert rt.transfer.stats()["h2d"] == 1  # no second transfer


def test_batch_chains_on_inflight_replica():
    """A batch request while the same tile flies to ``dst`` must dedup onto
    the flight, exactly like sequential ``ensure_resident``."""
    rt, part = setup()
    tile = part[(0, 0)]
    first = rt.transfer.ensure_resident(tile, dst=0)
    ready, cost, _ = rt.transfer.ensure_resident_batch(
        [tile.read_access], dst=0, now=0.0, inputs_ready=0.0
    )
    assert ready == first
    assert rt.transfer.stats()["h2d"] == 1


def test_batch_write_only_access_allocates_without_transfer():
    rt, part = setup()
    tile = part[(0, 0)]
    ready, cost, pinned = rt.transfer.ensure_resident_batch(
        [tile.write_access], dst=0, now=0.0, inputs_ready=0.0
    )
    assert cost == 0.0
    assert pinned == []  # outputs are not launch-pinned
    stats = rt.transfer.stats()
    assert stats["h2d"] == 0 and stats["p2p"] == 0


# --------------------------------------------------------------- _make_room


def test_make_room_skips_pinned_tile():
    rt, part = tiny_setup(memory_tiles=2)
    t0, t1, t2 = part[(0, 0)], part[(0, 1)], part[(0, 2)]
    rt.transfer.ensure_resident(t0, dst=0)
    rt.sim.run()
    rt.caches[0].pin(t0.key)
    rt.transfer.ensure_resident(t1, dst=0)
    rt.sim.run()
    # Cache full (two tiles), t0 pinned: the third fetch must evict t1.
    rt.transfer.ensure_resident(t2, dst=0)
    rt.sim.run()
    assert t0.key in rt.caches[0]
    assert t1.key not in rt.caches[0]
    assert is_valid(rt.directory, rt.directory.lookup(t2.key), 0)


def test_make_room_raises_when_everything_pinned():
    rt, part = tiny_setup(memory_tiles=2)
    t0, t1, t2 = part[(0, 0)], part[(0, 1)], part[(0, 2)]
    for t in (t0, t1):
        rt.transfer.ensure_resident(t, dst=0)
        rt.sim.run()
        rt.caches[0].pin(t.key)
    with pytest.raises(DeviceOutOfMemoryError):
        rt.transfer.ensure_resident(t2, dst=0)


def test_make_room_respects_protect_set():
    rt, part = tiny_setup(memory_tiles=2)
    t0, t1, t2 = part[(0, 0)], part[(0, 1)], part[(0, 2)]
    rt.transfer.ensure_resident(t0, dst=0)
    rt.transfer.ensure_resident(t1, dst=0)
    rt.sim.run()
    rt.transfer.ensure_resident(t2, dst=0, protect=(t0.key,))
    rt.sim.run()
    assert t0.key in rt.caches[0]
    assert t1.key not in rt.caches[0]


def test_make_room_single_dirty_victim_written_back():
    """A dirty victim with no valid host copy is written back, not dropped."""
    rt, part = tiny_setup(memory_tiles=2)
    t0, t1, t2 = part[(0, 0)], part[(0, 1)], part[(0, 2)]
    for t in (t0, t1):
        rt.transfer.ensure_resident(t, dst=0)
        rt.sim.run()
        rt.transfer.register_write(t, device=0, when=rt.sim.now)
    assert rt.caches[0].is_dirty(t0.key) and rt.caches[0].is_dirty(t1.key)
    assert not rt.directory.host_valid(rt.directory.lookup(t0.key))

    rt.transfer.ensure_resident(t2, dst=0)
    rt.sim.run()

    stats = rt.transfer.stats()
    assert stats["d2h"] == 1  # one tile's worth of room: exactly one victim
    evicted = [t for t in (t0, t1) if t.key not in rt.caches[0]]
    assert len(evicted) == 1
    d = rt.directory
    assert d.host_valid(d.lookup(evicted[0].key))
    assert is_valid(d, d.lookup(t2.key), 0)


def test_make_room_all_resident_dirty_batches_writebacks():
    """Every victim dirty with no valid host copy: eviction must write each
    one back (the batched D2H reservation path) before the fetch lands."""
    rt, part = tiny_setup(memory_tiles=4)
    smalls = [part[(0, j)] for j in range(4)]
    for t in smalls:
        rt.transfer.ensure_resident(t, dst=0)
        rt.sim.run()
        rt.transfer.register_write(t, device=0, when=rt.sim.now)
    assert all(rt.caches[0].is_dirty(t.key) for t in smalls)

    # One 64x64 tile = four 32x32 tiles: fetching it must evict (and write
    # back) every resident dirty tile through one batched D2H reservation.
    big = rt.partition(Matrix.meta(64, 64, name="B"), 64)[(0, 0)]
    rt.transfer.ensure_resident(big, dst=0)
    rt.sim.run()

    stats = rt.transfer.stats()
    assert stats["d2h"] == 4  # every dirty victim written back
    d = rt.directory
    for t in smalls:
        assert t.key not in rt.caches[0]
        assert d.host_valid(d.lookup(t.key))
    assert is_valid(d, d.lookup(big.key), 0)


def test_make_room_dirty_victim_with_host_copy_needs_no_writeback():
    """A dirty victim whose write-back already landed (host valid) is dropped
    without a second D2H."""
    rt, part = tiny_setup(memory_tiles=2)
    t0, t1, t2 = part[(0, 0)], part[(0, 1)], part[(0, 2)]
    rt.transfer.ensure_resident(t0, dst=0)
    rt.sim.run()
    rt.transfer.register_write(t0, device=0, when=rt.sim.now)
    rt.transfer.ensure_host_valid(t0)
    rt.sim.run()
    rt.transfer.ensure_resident(t1, dst=0)
    rt.sim.run()
    d2h_before = rt.transfer.stats()["d2h"]
    rt.transfer.ensure_resident(t2, dst=0)
    rt.sim.run()
    assert rt.transfer.stats()["d2h"] == d2h_before


# ---------------------------------- estimate_transfers vs _select_source


_POLICIES = [
    SourcePolicy.HOST_ONLY,
    SourcePolicy.ANY_VALID,
    SourcePolicy.TOPOLOGY,
    SourcePolicy.TOPOLOGY_OPTIMISTIC,
]


@given(
    replicas=st.sets(st.integers(min_value=0, max_value=7), max_size=8),
    dst=st.integers(min_value=0, max_value=7),
    ti=st.integers(min_value=0, max_value=3),
    tj=st.integers(min_value=0, max_value=3),
    policy=st.sampled_from(_POLICIES),
)
@settings(max_examples=50, deadline=None)
def test_property_preview_agrees_with_select(replicas, dst, ti, tj, policy):
    """Over random directory states (and no in-flight transfers) the
    read-only estimate prices a transfer to ``dst`` over the link from the
    source the stateful ``_select_source`` picks."""
    rt = Runtime(make_dgx1(8), RuntimeOptions(source_policy=policy))
    mat = Matrix.meta(4096, 4096, name="A")
    part = rt.partition(mat, 1024)
    tile = part[(ti, tj)]
    tid = rt.directory.lookup(tile.key)
    for d in sorted(replicas):
        rt.directory.seed_device(tid, d, exclusive=False)
        rt.caches[d].insert(tile.key, tile.nbytes)

    row = rt.transfer.estimate_transfers([tile.read_access])
    if dst in replicas:
        # Already valid at the destination: a free local hit; the launch
        # path never consults _select_source in this state.
        assert row[dst] == 0.0
        return
    src_sel, _ = rt.transfer._select_source(tile.key, dst, rt.sim.now, tid)
    if not replicas or not policy.uses_device_sources:
        assert src_sel == HOST
        bw = rt.platform.host_bandwidth
    else:
        assert src_sel in replicas
        bw = rt.fabric.link_bandwidth[(src_sel, dst)]
    assert row[dst] == tile.nbytes / bw
