"""Tests for the transfer manager — the paper's two heuristics."""

from repro import Runtime, RuntimeOptions
from repro.memory.matrix import Matrix
from repro.runtime.policies import SourcePolicy
from repro.topology.dgx1 import make_dgx1
from tests.directory_views import is_valid, valid_devices


def setup(policy=SourcePolicy.TOPOLOGY_OPTIMISTIC, num_gpus=8):
    rt = Runtime(make_dgx1(num_gpus), RuntimeOptions(source_policy=policy))
    mat = Matrix.meta(4096, 4096, name="A")
    part = rt.partition(mat, 1024)
    return rt, part


def test_first_fetch_comes_from_host():
    rt, part = setup()
    tile = part[(0, 0)]
    ready = rt.transfer.ensure_resident(tile, dst=0)
    assert ready > 0
    rt.sim.run()
    assert is_valid(rt.directory, rt.directory.lookup(tile.key), 0)
    assert rt.transfer.stats()["h2d"] == 1


def test_second_fetch_same_device_is_free():
    rt, part = setup()
    tile = part[(0, 0)]
    rt.transfer.ensure_resident(tile, dst=0)
    rt.sim.run()
    again = rt.transfer.ensure_resident(tile, dst=0)
    assert again == rt.sim.now  # already valid, no new transfer
    assert rt.transfer.stats()["h2d"] == 1


def test_inflight_request_deduplicated():
    """A second request to the same destination while in flight does not
    issue another copy — the §III-C duplicate-transfer avoidance."""
    rt, part = setup()
    tile = part[(0, 0)]
    first = rt.transfer.ensure_resident(tile, dst=0)
    second = rt.transfer.ensure_resident(tile, dst=0)
    assert second == first
    assert rt.transfer.stats()["h2d"] == 1


def test_topology_policy_picks_best_ranked_source():
    """With replicas on a 2xNVLink peer and a PCIe peer, the topology-aware
    policy sources from the NVLink one (§III-B)."""
    rt, part = setup(SourcePolicy.TOPOLOGY)
    tile = part[(0, 0)]
    # GPU 3 is 2xNVLink from 0; GPU 5 is PCIe from 0 (DGX-1 wiring).
    rt.directory.seed_device(rt.directory.lookup(tile.key), 3, exclusive=False)
    rt.caches[3].insert(tile.key, tile.nbytes)
    rt.directory.seed_device(rt.directory.lookup(tile.key), 5, exclusive=False)
    rt.caches[5].insert(tile.key, tile.nbytes)
    estimate = rt.transfer.estimate_transfers([tile.read_access])[0]
    assert estimate == tile.nbytes / rt.fabric.link_bandwidth[(3, 0)]
    rt.transfer.ensure_resident(tile, dst=0)
    rt.sim.run()
    assert rt.transfer.stats()["p2p"] == 1
    ptop = [iv for iv in rt.trace if "p2p 3->0" in iv.label]
    assert len(ptop) == 1


def test_host_only_policy_ignores_device_replicas():
    rt, part = setup(SourcePolicy.HOST_ONLY)
    tile = part[(0, 0)]
    rt.directory.seed_device(rt.directory.lookup(tile.key), 3, exclusive=False)
    rt.caches[3].insert(tile.key, tile.nbytes)
    estimate = rt.transfer.estimate_transfers([tile.read_access])[0]
    assert estimate == tile.nbytes / rt.platform.host_bandwidth
    rt.transfer.ensure_resident(tile, dst=0)
    rt.sim.run()
    assert rt.transfer.stats()["p2p"] == 0
    assert rt.transfer.stats()["h2d"] == 1


def test_optimistic_chains_on_inflight_replica():
    """§III-C: with a copy in flight to GPU 1 and the host pipe congested,
    a request on GPU 0 waits for the flight and forwards device-to-device."""
    rt, part = setup(SourcePolicy.TOPOLOGY_OPTIMISTIC, num_gpus=2)
    tile = part[(0, 0)]
    # Congest the switch the two GPUs share, then start the flight to GPU 1.
    other = part[(1, 0)]
    for _ in range(6):
        pass
    rt.transfer.ensure_resident(tile, dst=1)
    # Now GPU 0 wants the same tile: host route shares the congested switch,
    # so the optimistic policy chains on the in-flight replica.
    rt.transfer.ensure_resident(tile, dst=0)
    rt.sim.run()
    stats = rt.transfer.stats()
    assert stats["optimistic_forwards"] == 1
    assert stats["h2d"] == 1  # a single PCIe crossing
    assert stats["p2p"] == 1
    tid = rt.directory.lookup(tile.key)
    assert is_valid(rt.directory, tid, 0)
    assert is_valid(rt.directory, tid, 1)


def test_non_optimistic_duplicates_host_transfer():
    rt, part = setup(SourcePolicy.TOPOLOGY, num_gpus=2)
    tile = part[(0, 0)]
    rt.transfer.ensure_resident(tile, dst=1)
    rt.transfer.ensure_resident(tile, dst=0)
    rt.sim.run()
    stats = rt.transfer.stats()
    assert stats["h2d"] == 2  # two PCIe crossings of the same tile
    assert stats["optimistic_forwards"] == 0


def test_optimistic_prefers_direct_host_when_faster():
    """A forward behind a long backlog would be pessimism: with idle host
    pipes on the destination's own switch, fetch directly."""
    rt, part = setup(SourcePolicy.TOPOLOGY_OPTIMISTIC, num_gpus=8)
    tile = part[(0, 0)]
    # Flight toward GPU 6 (other switch); GPU 0's own switch is idle, and the
    # P2P route 6->0 is PCIe (slow), so host wins.
    rt.transfer.ensure_resident(tile, dst=6)
    rt.transfer.ensure_resident(tile, dst=0)
    rt.sim.run()
    assert rt.transfer.stats()["h2d"] == 2


def test_write_invalidates_other_replicas():
    rt, part = setup()
    tile = part[(0, 0)]
    rt.transfer.ensure_resident(tile, dst=0)
    rt.transfer.ensure_resident(tile, dst=1)
    rt.sim.run()
    rt.transfer.register_write(tile, device=0, when=rt.sim.now)
    tid = rt.directory.lookup(tile.key)
    assert valid_devices(rt.directory, tid) == [0]
    assert not rt.directory.host_valid(tid)
    assert tile.key not in rt.caches[1]
    assert rt.caches[0]._resident[tile.key].dirty


def test_ensure_host_valid_writes_back_dirty_replica():
    rt, part = setup()
    tile = part[(0, 0)]
    rt.transfer.ensure_resident(tile, dst=0)
    rt.sim.run()
    rt.transfer.register_write(tile, device=0, when=rt.sim.now)
    end = rt.transfer.ensure_host_valid(tile)
    assert end > rt.sim.now
    rt.sim.run()
    assert rt.directory.host_valid(rt.directory.lookup(tile.key))
    # Source replica downgraded to SHARED and no longer dirty.
    assert not rt.caches[0]._resident[tile.key].dirty
    assert rt.transfer.stats()["d2h"] == 1


def test_ensure_host_valid_idempotent():
    rt, part = setup()
    tile = part[(0, 0)]
    assert rt.transfer.ensure_host_valid(tile) == rt.sim.now
    assert rt.transfer.stats()["d2h"] == 0


def test_host_only_with_dirty_device_does_writeback_then_h2d():
    rt, part = setup(SourcePolicy.HOST_ONLY)
    tile = part[(0, 0)]
    rt.transfer.ensure_resident(tile, dst=0)
    rt.sim.run()
    rt.transfer.register_write(tile, device=0, when=rt.sim.now)
    rt.transfer.ensure_resident(tile, dst=1)
    rt.sim.run()
    stats = rt.transfer.stats()
    assert stats["d2h"] == 1 and stats["h2d"] == 2
    assert is_valid(rt.directory, rt.directory.lookup(tile.key), 1)
