"""Interconnect links and their performance ranking.

The paper groups GPU-pair links of the DGX-1 into three classes (§III-B):
two bonded NVLinks (~96 GB/s), a single NVLink (~48 GB/s) and PCIe routes
(~17 GB/s).  The topology-aware heuristic consumes only the *relative* rank of
these classes — exactly what CUDA's ``cuDeviceGetP2PAttribute`` with
``CU_DEVICE_P2P_ATTRIBUTE_PERFORMANCE_RANK`` returns — so :class:`LinkKind`
carries both a rank and a default bandwidth.
"""

from __future__ import annotations

import dataclasses
import enum

from repro import config
from repro.errors import TopologyError


class LinkKind(enum.Enum):
    """Physical class of a link, ordered by performance.

    ``perf_rank`` follows the CUDA convention: **lower is faster** (rank 0 is
    the best link class).  The heuristics only ever compare ranks.
    """

    NVLINK_DOUBLE = ("nvlink2x", 0, config.NVLINK2_DOUBLE_BW)
    NVLINK_SINGLE = ("nvlink1x", 1, config.NVLINK2_SINGLE_BW)
    NVLINK_HOST = ("nvlink-host", 1, 50.0e9)  # Summit-style CPU<->GPU NVLink
    PCIE_PEER = ("pcie-peer", 2, config.PCIE_PEER_BW)
    PCIE_HOST = ("pcie-host", 3, config.PCIE_HOST_BW)
    LOCAL = ("local", -1, config.LOCAL_COPY_BW)

    def __init__(self, label: str, perf_rank: int, default_bandwidth: float) -> None:
        self.label = label
        self.perf_rank = perf_rank
        self.default_bandwidth = default_bandwidth

    @property
    def is_nvlink(self) -> bool:
        return self in (
            LinkKind.NVLINK_DOUBLE,
            LinkKind.NVLINK_SINGLE,
            LinkKind.NVLINK_HOST,
        )


@dataclasses.dataclass(frozen=True, slots=True)
class Link:
    """A directed link between two endpoints of the platform.

    Endpoints are device ids (``>= 0``) or :data:`HOST` (``-1``).  Bandwidth
    defaults to the link class's nominal figure but can be overridden with the
    measured values of the paper's Fig. 2 matrix.
    """

    src: int
    dst: int
    kind: LinkKind
    bandwidth: float = 0.0
    latency: float = config.LINK_LATENCY

    def __post_init__(self) -> None:
        if self.src == self.dst and self.kind is not LinkKind.LOCAL:
            raise TopologyError(f"self-link {self.src} must be LOCAL, got {self.kind}")
        if self.bandwidth < 0:
            raise TopologyError("bandwidth must be >= 0 (0 selects the class default)")
        if self.bandwidth == 0.0:
            object.__setattr__(self, "bandwidth", self.kind.default_bandwidth)

    @property
    def perf_rank(self) -> int:
        """CUDA-style performance rank (lower is faster)."""
        return self.kind.perf_rank

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link({self.src}->{self.dst}, {self.kind.label}, "
            f"{self.bandwidth / 1e9:.1f} GB/s)"
        )


HOST = -1
"""Endpoint id of the host (CPU + main memory) in link descriptions."""
