"""Tests for Platform, links and device specs."""

import pytest

from repro.errors import TopologyError
from repro.topology.device import CpuSpec, GpuSpec, characteristic_dim
from repro.topology.link import Link, LinkKind
from repro.topology.platform import Platform


def make_platform(n=3):
    links = []
    # 0-1 double, 0-2 single, 1-2 falls back to PCIe peer
    for a, b, kind in ((0, 1, LinkKind.NVLINK_DOUBLE), (0, 2, LinkKind.NVLINK_SINGLE)):
        links.append(Link(a, b, kind))
        links.append(Link(b, a, kind))
    return Platform(
        name="t", gpus=[GpuSpec()] * n, links=links, pcie_switch_groups=[(0,), (1, 2)]
    )


# ------------------------------------------------------------------ links


def test_link_defaults_to_class_bandwidth():
    link = Link(0, 1, LinkKind.NVLINK_SINGLE)
    assert link.bandwidth == LinkKind.NVLINK_SINGLE.default_bandwidth


def test_self_link_must_be_local():
    with pytest.raises(TopologyError):
        Link(0, 0, LinkKind.NVLINK_SINGLE)
    assert Link(0, 0, LinkKind.LOCAL).perf_rank == -1


def test_perf_rank_ordering():
    assert (
        LinkKind.NVLINK_DOUBLE.perf_rank
        < LinkKind.NVLINK_SINGLE.perf_rank
        < LinkKind.PCIE_PEER.perf_rank
        < LinkKind.PCIE_HOST.perf_rank
    )


def test_link_class_predicates():
    assert LinkKind.NVLINK_DOUBLE.is_nvlink and LinkKind.NVLINK_HOST.is_nvlink
    assert not LinkKind.PCIE_HOST.is_nvlink
    assert not LinkKind.PCIE_PEER.is_nvlink


# --------------------------------------------------------------- platform


def test_missing_pair_falls_back_to_pcie_peer():
    plat = make_platform()
    assert plat.link(1, 2).kind is LinkKind.PCIE_PEER


def test_p2p_performance_rank_matches_cuda_convention():
    plat = make_platform()
    assert plat.p2p_performance_rank(0, 1) == 0
    assert plat.p2p_performance_rank(0, 2) == 1
    assert plat.p2p_performance_rank(1, 2) == 2


def test_peers_by_rank_sorts_best_first():
    plat = make_platform()
    assert plat.peers_by_rank(0, [1, 2]) == [1, 2]
    assert plat.peers_by_rank(2, [0, 1]) == [0, 1]  # 0 is single-NVLink to 2


def test_host_switch_of():
    plat = make_platform()
    assert plat.host_switch_of(0) == 0
    assert plat.host_switch_of(1) == plat.host_switch_of(2) == 1


def test_duplicate_link_rejected():
    links = [Link(0, 1, LinkKind.NVLINK_SINGLE)] * 2
    with pytest.raises(TopologyError):
        Platform(name="x", gpus=[GpuSpec()] * 2, links=links)


def test_switch_group_validation():
    with pytest.raises(TopologyError, match="two PCIe switch groups"):
        Platform(name="x", gpus=[GpuSpec()] * 2, pcie_switch_groups=[(0, 1), (1,)])
    with pytest.raises(TopologyError, match="missing"):
        Platform(name="x", gpus=[GpuSpec()] * 2, pcie_switch_groups=[(0,)])


def test_empty_platform_rejected():
    with pytest.raises(TopologyError):
        Platform(name="x", gpus=[])


# ------------------------------------------------------------- NVLink hops


def nvlink_platform(n, pairs):
    """``n`` GPUs with one directed single NVLink per ``(src, dst)`` pair."""
    links = [Link(a, b, LinkKind.NVLINK_SINGLE) for a, b in pairs]
    return Platform(name="nvl", gpus=[GpuSpec()] * n, links=links)


def test_nvlink_hops_counts_intermediate_gpus_on_a_directed_chain():
    plat = nvlink_platform(4, [(0, 1), (1, 2), (2, 3)])
    assert plat.nvlink_hops(0, 3) == 2
    assert plat.nvlink_hops(0, 2) == 1
    assert plat.nvlink_hops(0, 1) == plat.nvlink_hops(1, 2) == plat.nvlink_hops(2, 3) == 0
    assert plat.nvlink_hops(3, 0) is None  # links are directed


def test_nvlink_hops_one_way_link_is_unreachable_in_reverse():
    plat = nvlink_platform(2, [(0, 1)])
    assert plat.nvlink_hops(0, 1) == 0
    assert plat.nvlink_hops(1, 0) is None


def test_nvlink_hops_gpu_without_nvlink_is_unreachable():
    plat = nvlink_platform(3, [(0, 1), (1, 0)])
    assert plat.link(0, 2).kind is LinkKind.PCIE_PEER  # P2P works, NVLink does not
    assert plat.nvlink_hops(0, 2) is None
    assert plat.nvlink_hops(2, 1) is None


def test_nvlink_hops_same_gpu_is_zero():
    plat = nvlink_platform(3, [(0, 1), (1, 0)])
    assert [plat.nvlink_hops(d, d) for d in range(3)] == [0, 0, 0]


def test_aggregate_peak():
    plat = make_platform()
    assert plat.aggregate_fp64_peak() == pytest.approx(3 * 7.8e12)


# ------------------------------------------------------------- device spec


def test_gpu_kernel_time_monotone_in_flops():
    gpu = GpuSpec()
    t1 = gpu.kernel_time(1e9, dim=1024)
    t2 = gpu.kernel_time(2e9, dim=1024)
    assert t2 > t1


def test_gpu_efficiency_saturates():
    gpu = GpuSpec()
    assert gpu.efficiency(64) < gpu.efficiency(2048) < gpu.max_efficiency
    assert gpu.efficiency(0) == 0.0


def test_gemm_efficiency_calibration():
    """~90% of peak at 2048-wide DGEMM tiles (paper's 91.2% aggregate peak)."""
    gpu = GpuSpec()
    assert 0.87 <= gpu.efficiency(2048) <= 0.93


def test_kernel_time_zero_flops_is_launch_latency():
    gpu = GpuSpec()
    assert gpu.kernel_time(0, dim=128) == gpu.launch_latency


def test_kernel_time_negative_flops_rejected():
    with pytest.raises(TopologyError):
        GpuSpec().kernel_time(-1, dim=10)


def test_regularity_scales_duration():
    gpu = GpuSpec()
    assert gpu.kernel_time(1e9, 1024, regularity=0.5) > gpu.kernel_time(
        1e9, 1024, regularity=1.0
    )


def test_gpu_spec_validation():
    with pytest.raises(TopologyError):
        GpuSpec(fp64_peak=0)
    with pytest.raises(TopologyError):
        GpuSpec(max_efficiency=1.5)
    with pytest.raises(TopologyError):
        CpuSpec(cores=0)


def test_characteristic_dim():
    assert characteristic_dim(8, 8, 8) == 8
    assert characteristic_dim(4, 16) == 8
    assert characteristic_dim(0, 8) == 0
