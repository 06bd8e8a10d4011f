"""Tests for the NVSwitch platform and errors/config modules."""

import pytest

from repro import config
from repro.errors import (
    BenchmarkError,
    BlasValidationError,
    CoherenceError,
    DeviceOutOfMemoryError,
    LibraryError,
    MemoryViewError,
    ReproError,
    SchedulingError,
    SimulationError,
    TaskGraphError,
    TopologyError,
)
from repro.topology.link import LinkKind
from repro.topology.nvswitch import NVSWITCH_PAIR_BW, make_nvswitch_node


def test_nvswitch_uniform_links():
    plat = make_nvswitch_node(8)
    for i in range(8):
        for j in range(8):
            if i == j:
                continue
            link = plat.link(i, j)
            assert link.kind is LinkKind.NVLINK_DOUBLE
            assert link.bandwidth == NVSWITCH_PAIR_BW


def test_nvswitch_ranking_is_flat():
    """All peers share one performance rank: nothing for the topology
    heuristic to prefer."""
    plat = make_nvswitch_node(8)
    ranks = {plat.p2p_performance_rank(i, 0) for i in range(1, 8)}
    assert len(ranks) == 1


def test_nvswitch_sixteen_gpus_default():
    plat = make_nvswitch_node()
    assert plat.num_gpus == 16
    assert len(plat.pcie_switch_groups) == 8


def test_nvswitch_odd_gpu_count_switch_groups():
    plat = make_nvswitch_node(5)
    assert [len(g) for g in plat.pcie_switch_groups] == [2, 2, 1]


def test_nvswitch_invalid_count():
    with pytest.raises(ValueError):
        make_nvswitch_node(0)
    with pytest.raises(ValueError):
        make_nvswitch_node(17)


def test_error_hierarchy():
    for exc in (
        TopologyError,
        SimulationError,
        MemoryViewError,
        CoherenceError,
        DeviceOutOfMemoryError,
        SchedulingError,
        TaskGraphError,
        BlasValidationError,
        LibraryError,
        BenchmarkError,
    ):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")


def test_config_sanity():
    """The calibration constants must stay consistent with the paper."""
    assert config.V100_FP64_PEAK == pytest.approx(7.8e12)
    assert config.NVLINK2_DOUBLE_BW > config.NVLINK2_SINGLE_BW > config.PCIE_PEER_BW
    assert config.PCIE_HOST_BW == pytest.approx(16e9)
    assert config.PAPER_TILE_SIZES == (1024, 2048, 4096)
    assert max(config.PAPER_TILE_SIZES_EXTENDED) == 16384
    assert config.XKAAPI_TASK_OVERHEAD < config.STARPU_TASK_OVERHEAD
