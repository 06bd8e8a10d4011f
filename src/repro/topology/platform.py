"""The :class:`Platform` — a full machine description.

A platform is a set of GPUs, host CPU sockets, directed links between
endpoints and the PCIe-switch sharing groups.  It answers the queries the
runtime heuristics need:

* :meth:`Platform.p2p_performance_rank` — the simulated equivalent of CUDA's
  ``cuDeviceGetP2PAttribute(..., PERFORMANCE_RANK, src, dst)``, which the
  paper's XKBLAS extension calls at library initialization (§III-B).
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping

from repro.errors import TopologyError
from repro.topology.device import CpuSpec, GpuSpec
from repro.topology.link import Link, LinkKind


def hop_distances(adjacency: Mapping[int, Iterable[int]], src: int) -> dict[int, int]:
    """Breadth-first edge counts from ``src`` to every node it reaches.

    ``adjacency`` maps a node to its out-neighbours (a node with none may be
    absent).  ``src`` itself is at distance 0.
    """
    dist = {src: 0}
    frontier = [src]
    while frontier:
        reached = []
        for node in frontier:
            step = dist[node] + 1
            for peer in adjacency.get(node, ()):
                if peer not in dist:
                    dist[peer] = step
                    reached.append(peer)
        frontier = reached
    return dist


@dataclasses.dataclass
class Platform:
    """An immutable machine description.

    Parameters
    ----------
    name:
        Machine name (Table I calls the DGX-1 testbed "Gemini").
    gpus:
        One :class:`GpuSpec` per device, indexed by device id ``0..n-1``.
    cpus:
        Host sockets.
    links:
        Directed device-to-device links.  Host links are described separately
        via ``pcie_switch_groups`` (or NVLink host links on Summit).
    pcie_switch_groups:
        Groups of device ids sharing one host PCIe switch: all host transfers
        of the group contend on one channel per direction.  On the DGX-1 each
        x16 PCIe Gen3 switch serves two GPUs (paper §II-B).
    host_link_kind / host_bandwidth / host_latency:
        Class and figures of the host links.
    """

    name: str
    gpus: list[GpuSpec]
    cpus: list[CpuSpec] = dataclasses.field(default_factory=lambda: [CpuSpec()])
    links: list[Link] = dataclasses.field(default_factory=list)
    pcie_switch_groups: list[tuple[int, ...]] = dataclasses.field(default_factory=list)
    host_link_kind: LinkKind = LinkKind.PCIE_HOST
    host_bandwidth: float = 0.0
    host_latency: float = 0.0

    def __post_init__(self) -> None:
        if not self.gpus:
            raise TopologyError("a platform needs at least one GPU")
        n = len(self.gpus)
        self._link_map: dict[tuple[int, int], Link] = {}
        for link in self.links:
            for end in (link.src, link.dst):
                if not (0 <= end < n):
                    raise TopologyError(f"link endpoint {end} out of range 0..{n - 1}")
            key = (link.src, link.dst)
            if key in self._link_map:
                raise TopologyError(f"duplicate link {key}")
            self._link_map[key] = link
        if self.host_bandwidth == 0.0:
            self.host_bandwidth = self.host_link_kind.default_bandwidth
        if self.host_latency == 0.0:
            from repro import config

            self.host_latency = config.PCIE_HOST_LATENCY
        if not self.pcie_switch_groups:
            # Default: every GPU gets a private host link.
            self.pcie_switch_groups = [(i,) for i in range(n)]
        seen: set[int] = set()
        for group in self.pcie_switch_groups:
            for dev in group:
                if not (0 <= dev < n):
                    raise TopologyError(f"switch group device {dev} out of range")
                if dev in seen:
                    raise TopologyError(f"device {dev} in two PCIe switch groups")
                seen.add(dev)
        if seen != set(range(n)):
            missing = sorted(set(range(n)) - seen)
            raise TopologyError(f"devices {missing} missing from PCIe switch groups")

    # ----------------------------------------------------------------- sizes

    @property
    def num_gpus(self) -> int:
        return len(self.gpus)

    def device_ids(self) -> range:
        return range(self.num_gpus)

    def aggregate_fp64_peak(self) -> float:
        """Sum of GPU FP64 peaks (62.4 TFlop/s for the paper's 8×V100)."""
        return sum(g.fp64_peak for g in self.gpus)

    # ----------------------------------------------------------------- links

    def link(self, src: int, dst: int) -> Link:
        """The directed link between two devices (or the device's LOCAL link).

        GPU pairs with no direct NVLink fall back to the PCIe peer route, as
        on the real machine where CUDA P2P still works across the PCIe fabric.
        """
        if src == dst:
            return Link(src, dst, LinkKind.LOCAL)
        try:
            return self._link_map[(src, dst)]
        except KeyError:
            return Link(src, dst, LinkKind.PCIE_PEER)

    def p2p_performance_rank(self, src: int, dst: int) -> int:
        """CUDA-style P2P performance rank from ``src`` to ``dst`` (lower=faster)."""
        return self.link(src, dst).perf_rank

    def host_switch_of(self, device: int) -> int:
        """Index of the PCIe switch group serving ``device``'s host link."""
        for idx, group in enumerate(self.pcie_switch_groups):
            if device in group:
                return idx
        raise TopologyError(f"device {device} not in any switch group")

    def peers_by_rank(self, dst: int, candidates: Iterable[int]) -> list[int]:
        """Sort candidate source devices by decreasing link performance to ``dst``.

        This is the core of the topology-aware heuristic: ties (same rank)
        break on device id for determinism.
        """
        return sorted(candidates, key=lambda s: (self.p2p_performance_rank(s, dst), s))

    # ------------------------------------------------------------- summaries

    def link_inventory(self) -> Mapping[LinkKind, int]:
        """Count of directed device-device links per class (excluding LOCAL)."""
        counts: dict[LinkKind, int] = {}
        n = self.num_gpus
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                kind = self.link(i, j).kind
                counts[kind] = counts.get(kind, 0) + 1
        return counts

    def nvlink_hops(self, src: int, dst: int) -> int | None:
        """Minimum NVLink-only hop count between two GPUs, ``None`` if unreachable.

        Counts intermediate GPUs along directed NVLink links, so direct peers
        are at 0 hops.  On the DGX-1 every GPU pair is at 0 or 1 intermediate
        hops over the NVLink cube-mesh (paper §II-B).
        """
        if src == dst:
            return 0
        devices = self.device_ids()
        adjacency = {
            i: [j for j in devices if j != i and self.link(i, j).kind.is_nvlink]
            for i in devices
        }
        edges = hop_distances(adjacency, src).get(dst)
        return None if edges is None else edges - 1
