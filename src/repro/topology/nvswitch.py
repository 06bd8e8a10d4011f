"""DGX-2-like NVSwitch platform.

The paper closes with "the portability of our performance results on other
architectures is the next step" (§V).  The interesting counterpoint to the
DGX-1's hybrid cube-mesh is the NVSwitch generation (DGX-2 and later): every
GPU pair talks through a switch at the same ~150 GB/s, so the *topology-aware
ranking has nothing to rank* — all peers share one performance class — while
the *optimistic* device-to-device heuristic keeps paying (host links remain
PCIe and shared).  ``benchmarks/test_ablation_nvswitch.py`` verifies exactly
that prediction on this model.
"""

from __future__ import annotations

import itertools

from repro import config
from repro.topology.device import CpuSpec, GpuSpec
from repro.topology.link import Link, LinkKind
from repro.topology.platform import Platform

#: Per-pair bandwidth through the NVSwitch fabric (GB/s).
NVSWITCH_PAIR_BW = 150.0 * config.GB


def make_nvswitch_node(num_gpus: int = 16) -> Platform:
    """Build a DGX-2-like node: uniform all-to-all NVLink via NVSwitch.

    Every GPU pair gets the same link class and bandwidth; host links stay
    x16 PCIe Gen3 shared two-GPUs-per-switch as on the DGX-1.
    """
    if not 1 <= num_gpus <= 16:
        raise ValueError(f"NVSwitch node supports 1..16 GPUs, requested {num_gpus}")
    links = [
        Link(i, j, LinkKind.NVLINK_DOUBLE, bandwidth=NVSWITCH_PAIR_BW)
        for i, j in itertools.permutations(range(num_gpus), 2)
    ]
    groups = [
        tuple(d for d in (2 * s, 2 * s + 1) if d < num_gpus)
        for s in range((num_gpus + 1) // 2)
    ]
    return Platform(
        name=f"NVSwitch node ({num_gpus} GPUs)",
        gpus=[GpuSpec()] * num_gpus,
        cpus=[CpuSpec(), CpuSpec()],
        links=links,
        pcie_switch_groups=[g for g in groups if g],
        host_link_kind=LinkKind.PCIE_HOST,
        host_bandwidth=config.PCIE_HOST_BW,
    )
