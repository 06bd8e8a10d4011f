"""Summit/Sierra-like node topology.

The paper's §III-C predicts the optimistic heuristic gains little on Summit or
Sierra nodes, where each GPU also has a high-speed NVLink to its host CPU
(~50 GB/s) instead of a shared PCIe switch.  This factory builds such a node
(6 GPUs in two triplets, all-to-all NVLink inside a triplet, X-bus between the
sockets modelled as the slower peer path) so that prediction can be tested —
see ``benchmarks/test_ablation_summit.py``.
"""

from __future__ import annotations

import itertools

from repro import config
from repro.topology.device import CpuSpec, GpuSpec
from repro.topology.link import Link, LinkKind
from repro.topology.platform import Platform

#: NVLink-2 bandwidth of one CPU<->GPU brick on Summit (GB/s).
SUMMIT_HOST_NVLINK_BW = 50.0 * config.GB
#: GPU<->GPU NVLink bandwidth inside a socket triplet (GB/s).
SUMMIT_PEER_NVLINK_BW = 50.0 * config.GB
#: Effective cross-socket (X-bus routed) GPU pair bandwidth (GB/s).
SUMMIT_XBUS_BW = 12.0 * config.GB


def make_summit_node(num_gpus: int = 6) -> Platform:
    """Build a Summit-like node: 2 sockets × 3 GPUs, NVLink host links.

    GPUs 0-2 attach to socket 0, GPUs 3-5 to socket 1.  Within a triplet the
    GPUs are fully connected by single NVLink bricks; across sockets traffic
    goes through the X-bus (slow peer path).  Every GPU has a *private*
    NVLink host link — no PCIe switch sharing.
    """
    if not 1 <= num_gpus <= 6:
        raise ValueError(f"Summit node has 1..6 GPUs, requested {num_gpus}")
    spec = GpuSpec(name="V100-SXM2-16GB", memory_bytes=int(16 * config.GB))
    links: list[Link] = []
    for i, j in itertools.permutations(range(num_gpus), 2):
        same_socket = (i < 3) == (j < 3)
        if same_socket:
            links.append(
                Link(i, j, LinkKind.NVLINK_SINGLE, bandwidth=SUMMIT_PEER_NVLINK_BW)
            )
        else:
            links.append(Link(i, j, LinkKind.PCIE_PEER, bandwidth=SUMMIT_XBUS_BW))
    return Platform(
        name="Summit-like node (2x POWER9 + 6x V100)",
        gpus=[spec] * num_gpus,
        cpus=[CpuSpec(name="POWER9", cores=22), CpuSpec(name="POWER9", cores=22)],
        links=links,
        pcie_switch_groups=[(d,) for d in range(num_gpus)],
        host_link_kind=LinkKind.NVLINK_HOST,
        host_bandwidth=SUMMIT_HOST_NVLINK_BW,
    )
