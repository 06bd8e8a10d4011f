"""Tests for the fabric (channels instantiated from a platform)."""

import pytest

from repro.errors import TopologyError
from repro.runtime.fabric import Fabric
from repro.sim.engine import Simulator
from repro.topology.dgx1 import make_dgx1
from repro.topology.link import HOST


@pytest.fixture()
def fabric(dgx1):
    return Fabric(Simulator(), dgx1)


MB32 = 32 * 1024 * 1024


def test_shared_switch_serializes_host_transfers(fabric):
    """GPUs 0 and 1 share one DGX-1 switch: their H2D transfers queue."""
    s0, e0 = fabric.reserve_h2d(0, MB32, 0.0)
    s1, e1 = fabric.reserve_h2d(1, MB32, 0.0)
    assert s1 >= e0  # same pipe


def test_different_switches_run_in_parallel(fabric):
    s0, e0 = fabric.reserve_h2d(0, MB32, 0.0)
    s2, e2 = fabric.reserve_h2d(2, MB32, 0.0)
    assert s0 == s2 == 0.0  # distinct switches


def test_h2d_and_d2h_directions_independent(fabric):
    _, e0 = fabric.reserve_h2d(0, MB32, 0.0)
    s1, _ = fabric.reserve_d2h(0, MB32, 0.0)
    assert s1 == 0.0  # full duplex


def test_nvlink_pairs_have_dedicated_channels(fabric):
    s0, e0 = fabric.reserve_p2p(0, 3, MB32, 0.0)  # 2x NVLink
    s1, e1 = fabric.reserve_p2p(1, 2, MB32, 0.0)  # other pair
    assert s0 == s1 == 0.0


def test_nvlink_faster_than_pcie_peer(fabric):
    _, e_nvl = fabric.reserve_p2p(0, 3, MB32, 0.0)  # 96 GB/s
    fabric2 = Fabric(Simulator(), make_dgx1(8))
    _, e_pcie = fabric2.reserve_p2p(0, 5, MB32, 0.0)  # PCIe route
    assert e_nvl < e_pcie


def test_pcie_peer_transfers_occupy_host_fabric(fabric):
    """P2P over the PCIe fabric contends with host traffic on both ends."""
    _, e = fabric.reserve_p2p(0, 5, MB32, 0.0)  # PCIe peer: switches 0 and 2
    s_host, _ = fabric.reserve_d2h(0, MB32, 0.0)
    assert s_host >= e  # source's D2H pipe was occupied
    s_host2, _ = fabric.reserve_h2d(5, MB32, 0.0)
    assert s_host2 >= e  # destination's H2D pipe was occupied


def test_nvlink_egress_engine_serializes_fanout(fabric):
    """Many peers pulling from one GPU saturate its NVLink engines
    (the §IV-B communication imbalance mechanism)."""
    big = 512 * 1024 * 1024
    ends = []
    for dst in (3, 4, 1, 2):  # all NVLink peers of GPU 0
        _, e = fabric.reserve_p2p(0, dst, big, 0.0)
        ends.append(e)
    # With dedicated pair channels only, all four would end near-together;
    # the shared egress engine forces a spread.
    assert max(ends) > min(ends) * 1.5


def test_reserve_dispatch(fabric):
    assert fabric.reserve(HOST, 0, 1024, 0.0)[1] > 0
    assert fabric.reserve(0, HOST, 1024, 0.0)[1] > 0
    assert fabric.reserve(0, 1, 1024, 0.0)[1] > 0
    with pytest.raises(TopologyError):
        fabric.reserve(HOST, HOST, 1024, 0.0)
    with pytest.raises(TopologyError):
        fabric.reserve_p2p(2, 2, 1024, 0.0)


def test_estimate_matches_reserve_on_idle_fabric(dgx1):
    fabric = Fabric(Simulator(), dgx1)
    est = fabric.estimate(HOST, 0, MB32, 0.0)
    _, end = fabric.reserve_h2d(0, MB32, 0.0)
    assert est == pytest.approx(end)
    fabric = Fabric(Simulator(), dgx1)
    est = fabric.estimate(0, 3, MB32, 0.0)
    _, end = fabric.reserve_p2p(0, 3, MB32, 0.0)
    assert est == pytest.approx(end)


def test_estimate_sees_backlog(fabric):
    fabric.reserve_h2d(0, 10 * MB32, 0.0)
    est = fabric.estimate(HOST, 0, MB32, 0.0)
    idle = Fabric(Simulator(), make_dgx1(8)).estimate(HOST, 0, MB32, 0.0)
    assert est > idle


def test_traffic_accounting(fabric):
    fabric.reserve_h2d(0, 100, 0.0)
    fabric.reserve_d2h(2, 50, 0.0)
    fabric.reserve_p2p(0, 3, 25, 0.0)
    assert fabric.host_bytes_total() == 150
    assert fabric.p2p_bytes_total() == 25


def test_local_copy_channel(fabric):
    s, e = fabric.reserve_local(0, MB32, 0.0)
    assert e - s < 1e-3  # ~750 GB/s
