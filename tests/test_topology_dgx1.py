"""Tests for the DGX-1 and Summit-like topology factories."""

import pytest

from repro import config
from repro.topology.dgx1 import (
    DGX1_DOUBLE_PAIRS,
    DGX1_MEASURED_BANDWIDTH_GBPS,
    DGX1_SINGLE_PAIRS,
    make_dgx1,
)
from repro.topology.link import LinkKind
from repro.topology.summit import make_summit_node


def test_dgx1_has_8_gpus_and_62_tflops(dgx1):
    assert dgx1.num_gpus == 8
    assert dgx1.aggregate_fp64_peak() == pytest.approx(62.4e12)


def test_dgx1_every_gpu_has_exactly_6_nvlink_lanes(dgx1):
    for dev in range(8):
        lanes = 0
        for other in range(8):
            if other == dev:
                continue
            kind = dgx1.link(dev, other).kind
            lanes += {LinkKind.NVLINK_DOUBLE: 2, LinkKind.NVLINK_SINGLE: 1}.get(kind, 0)
        assert lanes == 6


def test_dgx1_link_classes_symmetric(dgx1):
    for i in range(8):
        for j in range(i + 1, 8):
            assert dgx1.link(i, j).kind is dgx1.link(j, i).kind, (i, j)


def test_dgx1_double_and_single_pairs_disjoint():
    assert not set(DGX1_DOUBLE_PAIRS) & set(DGX1_SINGLE_PAIRS)
    assert len(DGX1_DOUBLE_PAIRS) == len(DGX1_SINGLE_PAIRS) == 8


def test_dgx1_measured_bandwidths_match_fig2(dgx1):
    """Link bandwidths come straight from the paper's Fig. 2 matrix."""
    for i in range(8):
        for j in range(8):
            if i == j:
                continue
            expected = DGX1_MEASURED_BANDWIDTH_GBPS[i][j] * config.GB
            assert dgx1.link(i, j).bandwidth == pytest.approx(expected)


def test_dgx1_bandwidth_classes_consistent_with_fig2(dgx1):
    """96-ish GB/s <=> double links, 48-ish <=> single, 17-ish <=> PCIe."""
    for i in range(8):
        for j in range(8):
            if i == j:
                continue
            gbps = DGX1_MEASURED_BANDWIDTH_GBPS[i][j]
            kind = dgx1.link(i, j).kind
            if gbps > 90:
                assert kind is LinkKind.NVLINK_DOUBLE
            elif gbps > 40:
                assert kind is LinkKind.NVLINK_SINGLE
            else:
                assert kind is LinkKind.PCIE_PEER


def test_dgx1_nvlink_hops_at_most_one(dgx1):
    """Paper §II-B: GPUs are at 0 or 1 hops in the NVLink cube-mesh."""
    for i in range(8):
        for j in range(8):
            hops = dgx1.nvlink_hops(i, j)
            assert hops is not None and hops <= 1


def test_dgx1_switch_groups(dgx1):
    assert [tuple(g) for g in dgx1.pcie_switch_groups] == [
        (0, 1),
        (2, 3),
        (4, 5),
        (6, 7),
    ]


def test_dgx1_partial_gpu_counts():
    plat = make_dgx1(4)
    assert plat.num_gpus == 4
    assert plat.link(0, 3).kind is LinkKind.NVLINK_DOUBLE
    assert [tuple(g) for g in plat.pcie_switch_groups] == [(0, 1), (2, 3)]


def test_dgx1_invalid_gpu_count():
    with pytest.raises(ValueError):
        make_dgx1(0)
    with pytest.raises(ValueError):
        make_dgx1(9)


# ------------------------------------------------------------------ summit


def test_summit_node_layout():
    plat = make_summit_node()
    assert plat.num_gpus == 6
    # intra-socket: NVLink; inter-socket: slow peer path
    assert plat.link(0, 1).kind is LinkKind.NVLINK_SINGLE
    assert plat.link(0, 3).kind is LinkKind.PCIE_PEER
    # private NVLink host links, no switch sharing
    assert plat.host_link_kind is LinkKind.NVLINK_HOST
    assert all(len(g) == 1 for g in plat.pcie_switch_groups)


def test_summit_host_links_faster_than_dgx1(dgx1):
    summit = make_summit_node()
    assert summit.host_bandwidth > dgx1.host_bandwidth


def test_summit_invalid_count():
    with pytest.raises(ValueError):
        make_summit_node(7)
