"""NVIDIA DGX-1 topology factory.

Reconstructs the hybrid cube-mesh of the paper's Fig. 1 with the measured
bandwidths of Fig. 2.  Each V100 exposes 6 NVLink-2 lanes; on the DGX-1 they
are bonded as:

* **double links** (2 lanes, ~96 GB/s): 0-3, 0-4, 1-2, 1-5, 2-3, 4-7, 5-6, 6-7
* **single links** (1 lane, ~48 GB/s): 0-1, 0-2, 1-3, 2-6, 3-7, 4-5, 4-6, 5-7
* all remaining pairs route over the PCIe fabric (~17 GB/s),

which gives every GPU exactly 2 double + 2 single links (6 lanes).  GPUs
``(0,1)``, ``(2,3)``, ``(4,5)``, ``(6,7)`` share one x16 PCIe Gen3 switch each
for host traffic (Fig. 1), the contention point the optimistic heuristic
relieves.
"""

from __future__ import annotations

from repro import config
from repro.topology.device import CpuSpec, GpuSpec
from repro.topology.link import Link, LinkKind
from repro.topology.platform import Platform

#: Undirected double-NVLink pairs of the DGX-1 cube-mesh.
DGX1_DOUBLE_PAIRS: tuple[tuple[int, int], ...] = (
    (0, 3),
    (0, 4),
    (1, 2),
    (1, 5),
    (2, 3),
    (4, 7),
    (5, 6),
    (6, 7),
)

#: Undirected single-NVLink pairs.
DGX1_SINGLE_PAIRS: tuple[tuple[int, int], ...] = (
    (0, 1),
    (0, 2),
    (1, 3),
    (2, 6),
    (3, 7),
    (4, 5),
    (4, 6),
    (5, 7),
)

#: GPUs sharing one host PCIe switch (Fig. 1: two GPUs per switch).
DGX1_PCIE_SWITCH_GROUPS: tuple[tuple[int, int], ...] = (
    (0, 1),
    (2, 3),
    (4, 5),
    (6, 7),
)

#: Measured GPU-to-GPU bandwidth matrix of the paper's Fig. 2, in GB/s.
#: Row = source device, column = destination device.
DGX1_MEASURED_BANDWIDTH_GBPS: tuple[tuple[float, ...], ...] = (
    (744.05, 48.37, 48.39, 96.49, 96.45, 17.11, 17.74, 17.97),
    (48.38, 750.48, 96.50, 48.38, 16.98, 96.44, 17.32, 16.97),
    (48.34, 96.28, 750.48, 96.47, 17.62, 16.93, 48.39, 17.75),
    (96.26, 48.34, 96.28, 750.48, 17.58, 17.22, 17.60, 48.39),
    (96.46, 16.98, 17.65, 17.53, 746.89, 48.30, 48.40, 96.49),
    (16.94, 96.42, 16.88, 17.21, 48.39, 745.47, 96.51, 48.40),
    (17.65, 16.90, 48.40, 17.51, 48.34, 96.47, 750.48, 96.47),
    (17.80, 16.91, 17.77, 48.39, 96.28, 48.38, 96.28, 747.61),
)


def _pair_kind(i: int, j: int) -> LinkKind:
    key = (min(i, j), max(i, j))
    if key in DGX1_DOUBLE_PAIRS:
        return LinkKind.NVLINK_DOUBLE
    if key in DGX1_SINGLE_PAIRS:
        return LinkKind.NVLINK_SINGLE
    return LinkKind.PCIE_PEER


def make_dgx1(num_gpus: int = 8, gpu: GpuSpec | None = None) -> Platform:
    """Build the DGX-1 platform of Table I ("Gemini").

    Parameters
    ----------
    num_gpus:
        Number of GPUs exposed (1..8); smaller counts keep the wiring of the
        first ``num_gpus`` devices, matching ``CUDA_VISIBLE_DEVICES`` pruning.
    gpu:
        Override the GPU spec (default: V100-SXM2 32 GB).
    """
    if not 1 <= num_gpus <= 8:
        raise ValueError(f"DGX-1 has 1..8 GPUs, requested {num_gpus}")
    spec = gpu if gpu is not None else GpuSpec()
    links: list[Link] = []
    for i in range(num_gpus):
        for j in range(num_gpus):
            if i == j:
                continue
            bw = DGX1_MEASURED_BANDWIDTH_GBPS[i][j] * config.GB
            links.append(Link(i, j, _pair_kind(i, j), bandwidth=bw))
    groups = tuple(
        tuple(d for d in group if d < num_gpus)
        for group in DGX1_PCIE_SWITCH_GROUPS
    )
    groups = tuple(g for g in groups if g)
    return Platform(
        name="Gemini (NVIDIA DGX-1)",
        gpus=[spec] * num_gpus,
        cpus=[CpuSpec(), CpuSpec()],
        links=links,
        pcie_switch_groups=list(groups),
        host_link_kind=LinkKind.PCIE_HOST,
        host_bandwidth=config.PCIE_HOST_BW,
    )
