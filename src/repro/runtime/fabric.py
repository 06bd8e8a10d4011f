"""Communication fabric: channels instantiated from a platform.

Maps the :class:`~repro.topology.platform.Platform` description onto
:class:`~repro.sim.channel.Channel` objects:

* one H2D and one D2H channel **per PCIe switch group** — the two GPUs behind
  one DGX-1 switch contend on the same host pipe, in each direction;
* one dedicated channel per directed NVLink pair;
* PCIe *peer* transfers ride the host fabric: they occupy the source's D2H
  switch channel and the destination's H2D switch channel simultaneously, at
  the (lower) measured peer bandwidth — so bulk P2P over PCIe also slows host
  traffic, which is exactly why the paper's heuristics try to keep traffic on
  NVLink.
* one local copy channel per device (the Fig. 2 diagonal).
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.topology.link import HOST
from repro.topology.platform import Platform


class Fabric:
    """All communication channels of one simulated platform instance.

    Besides the channels, the fabric owns every precomputed routing table the
    transfer heuristics consult per transfer: per-route latency/bandwidth
    lists (for :meth:`estimate`), per-destination link-performance rank
    keys, raw link bandwidths, and — on platforms small enough to enumerate —
    the full candidate-mask source-selection tables (:attr:`mask_members`,
    :attr:`best_source_by_mask`), which collapse the topology-aware argmin
    over a validity bitmask into a single list index.  The topology is
    immutable for the fabric's lifetime, so all of these are built once here
    and shared by every consumer.
    """

    #: largest GPU count for which the 2**n-entry candidate-mask tables are
    #: enumerated; beyond it :attr:`best_source_by_mask` / :attr:`mask_members`
    #: are None and selection falls back to the per-call bitmask walk.
    MASK_TABLE_MAX_GPUS = 12

    def __init__(self, sim: Simulator, platform: Platform) -> None:
        self.sim = sim
        self.platform = platform
        self._h2d: dict[int, Channel] = {}
        self._d2h: dict[int, Channel] = {}
        for gi, group in enumerate(platform.pcie_switch_groups):
            h2d = Channel(
                sim,
                platform.host_bandwidth,
                platform.host_latency,
                name=f"switch{gi}-h2d",
            )
            d2h = Channel(
                sim,
                platform.host_bandwidth,
                platform.host_latency,
                name=f"switch{gi}-d2h",
            )
            for dev in group:
                self._h2d[dev] = h2d
                self._d2h[dev] = d2h
        self._p2p: dict[tuple[int, int], Channel] = {}
        n = platform.num_gpus
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    continue
                link = platform.link(src, dst)
                if link.kind.is_nvlink:
                    self._p2p[(src, dst)] = Channel(
                        sim,
                        link.bandwidth,
                        link.latency,
                        name=f"nvlink-{src}->{dst}",
                    )
        self._local = {
            dev: Channel(
                sim,
                platform.link(dev, dev).bandwidth,
                0.0,
                name=f"local-{dev}",
            )
            for dev in range(n)
        }
        # Per-device NVLink injection/ejection engines: a V100 has 6 NVLink
        # bricks (~150 GB/s aggregate) shared by all its peer links, so a GPU
        # serving many concurrent pulls saturates — the mechanism behind the
        # paper's §IV-B observation that "some GPUs require more time to send
        # or receive data than the others".
        self._nvlink_egress = {
            dev: Channel(
                sim,
                platform.gpus[dev].nvlink_aggregate_bw,
                0.0,
                name=f"nvl-out-{dev}",
            )
            for dev in range(n)
        }
        self._nvlink_ingress = {
            dev: Channel(
                sim,
                platform.gpus[dev].nvlink_aggregate_bw,
                0.0,
                name=f"nvl-in-{dev}",
            )
            for dev in range(n)
        }
        # Effective (latency, bandwidth) of every directed route, flattened to
        # ``(src + 1) * (n + 1) + (dst + 1)`` (HOST = -1 maps to slot 0), for
        # :meth:`estimate`'s duration term.  Nothing reads the unused slots
        # (host-host, local).
        stride = n + 1
        lat = [0.0] * (stride * stride)
        bw = [1.0] * (stride * stride)
        for dst in range(n):
            h2d = self._h2d[dst]
            lat[dst + 1] = h2d.latency
            bw[dst + 1] = h2d.bandwidth
        for src in range(n):
            d2h = self._d2h[src]
            lat[(src + 1) * stride] = d2h.latency
            bw[(src + 1) * stride] = d2h.bandwidth
            for dst in range(n):
                if src == dst:
                    continue
                direct = self._p2p.get((src, dst))
                idx = (src + 1) * stride + dst + 1
                if direct is not None:
                    lat[idx] = direct.latency
                    bw[idx] = direct.bandwidth
                else:
                    link = platform.link(src, dst)
                    lat[idx] = link.latency
                    bw[idx] = link.bandwidth
        self._route_latency = lat
        self._route_bandwidth = bw
        self._route_stride = stride
        #: per-route tuple of the channels whose FIFO backlog gates a transfer
        #: on that route, same flat indexing as the latency/bandwidth tables —
        #: :meth:`estimate` maxes their ``busy_until`` in one walk instead of
        #: re-deriving the route shape per call.
        deps: list[tuple[Channel, ...]] = [()] * (stride * stride)
        for dst in range(n):
            deps[dst + 1] = (self._h2d[dst],)
        for src in range(n):
            deps[(src + 1) * stride] = (self._d2h[src],)
            for dst in range(n):
                idx = (src + 1) * stride + dst + 1
                direct = self._p2p.get((src, dst))
                if direct is not None:
                    deps[idx] = (
                        direct,
                        self._nvlink_egress[src],
                        self._nvlink_ingress[dst],
                    )
                else:
                    deps[idx] = (self._d2h[src], self._h2d[dst])
        self._route_deps = deps
        # --- source-selection tables (consumed by the transfer manager) ---
        # rank_key[dst][src] is the (performance-rank, src) sort key behind
        # Platform.peers_by_rank; link_bandwidth the raw directed figure.
        devices = range(n)
        self.rank_key: list[dict[int, tuple[int, int]]] = [
            {
                src: (platform.p2p_performance_rank(src, dst), src)
                for src in devices
                if src != dst
            }
            for dst in devices
        ]
        self.link_bandwidth: dict[tuple[int, int], float] = {
            (src, dst): platform.link(src, dst).bandwidth
            for dst in devices
            for src in devices
            if src != dst
        }
        # Candidate-mask tables: mask_members[mask] lists the devices of a
        # validity bitmask in ascending id order (the order the bitmask walk
        # produces), and best_source_by_mask[dst][mask] is the rank-minimal
        # member — the whole topology-aware source pick becomes one index.
        if n <= self.MASK_TABLE_MAX_GPUS:
            members: list[tuple[int, ...]] = [()] * (1 << n)
            for mask in range(1, 1 << n):
                low = mask & -mask
                members[mask] = (low.bit_length() - 1, *members[mask ^ low])
            self.mask_members: tuple[tuple[int, ...], ...] | None = tuple(members)
            best: list[list[int]] = []
            for dst in devices:
                rank = self.rank_key[dst]
                table = [-1] * (1 << n)
                for mask in range(1, 1 << n):
                    m = mask & ~(1 << dst)
                    if m:
                        table[mask] = min(members[m], key=rank.__getitem__)
                best.append(table)
            self.best_source_by_mask: list[list[int]] | None = best
        else:
            self.mask_members = None
            self.best_source_by_mask = None

    # ------------------------------------------------------------- reserving

    def reserve_h2d(self, dst: int, nbytes: int, earliest: float) -> tuple[float, float]:
        """Host -> device transfer over the destination's switch channel."""
        return self._h2d[dst].reserve(nbytes, earliest)

    def reserve_d2h(self, src: int, nbytes: int, earliest: float) -> tuple[float, float]:
        """Device -> host transfer over the source's switch channel."""
        return self._d2h[src].reserve(nbytes, earliest)

    def reserve_p2p(
        self, src: int, dst: int, nbytes: int, earliest: float
    ) -> tuple[float, float]:
        """Device -> device transfer.

        NVLink pairs use their dedicated channel.  PCIe peer routes reserve
        both host-fabric channels involved (source D2H and destination H2D)
        for the same interval at the measured peer bandwidth.
        """
        if src == dst:
            raise TopologyError(f"p2p transfer with src == dst == {src}")
        direct = self._p2p.get((src, dst))
        if direct is not None:
            # The transfer streams through the source's egress engine, the
            # pair link, and the destination's ingress engine; the slowest
            # stage (usually the pair link) sets the duration, the shared
            # engines charge their own occupancy so fan-in/fan-out hotspots
            # serialize.
            e_start, _ = self._nvlink_egress[src].reserve(nbytes, earliest)
            i_start, _ = self._nvlink_ingress[dst].reserve(
                nbytes, earliest if earliest > e_start else e_start
            )
            return direct.reserve(nbytes, i_start if i_start > e_start else e_start)
        link = self.platform.link(src, dst)
        out_chan = self._d2h[src]
        in_chan = self._h2d[dst]
        start = max(earliest, self.sim.now, out_chan.busy_until, in_chan.busy_until)
        duration = link.latency + nbytes / link.bandwidth
        end = start + duration
        # Occupy both pipes for the whole interval.
        for chan in (out_chan, in_chan) if out_chan is not in_chan else (out_chan,):
            chan.occupy(start, end, nbytes)
        return start, end

    def reserve(
        self, src: int, dst: int, nbytes: int, earliest: float
    ) -> tuple[float, float]:
        """Dispatch on endpoint kinds (HOST = -1)."""
        if src == HOST and dst == HOST:
            raise TopologyError("host-to-host transfers are not modelled")
        if src == HOST:
            return self.reserve_h2d(dst, nbytes, earliest)
        if dst == HOST:
            return self.reserve_d2h(src, nbytes, earliest)
        return self.reserve_p2p(src, dst, nbytes, earliest)

    def reserve_local(self, dev: int, nbytes: int, earliest: float) -> tuple[float, float]:
        return self._local[dev].reserve(nbytes, earliest)

    # ------------------------------------------------------------ estimating

    def estimate(self, src: int, dst: int, nbytes: int, earliest: float) -> float:
        """Estimated completion time of a transfer, without reserving.

        Accounts for the current FIFO backlog of the channels involved; used
        by source-selection policies to compare candidate routes.  The end
        is ``start + (latency + nbytes / bandwidth)`` over the route's
        precomputed latency and bandwidth, parenthesized as
        :meth:`Channel.reserve` computes it so an estimate rounds like the
        reservation it predicts; the backlog term comes from the precomputed
        per-route channel tuple — both bit-identical to walking the route
        shape by hand (a max over the same operands in the same order).
        """
        idx = (src + 1) * self._route_stride + dst + 1
        start = self.sim.now
        if earliest > start:
            start = earliest
        for chan in self._route_deps[idx]:
            busy = chan.busy_until
            if busy > start:
                start = busy
        return start + (self._route_latency[idx] + nbytes / self._route_bandwidth[idx])

    # ------------------------------------------------------------ inspection

    def p2p_bytes_total(self) -> int:
        return sum(c.bytes_moved for c in self._p2p.values())

    def host_bytes_total(self) -> int:
        seen: set[str] = set()
        total = 0
        for chan in list(self._h2d.values()) + list(self._d2h.values()):
            if chan.name in seen:
                continue
            seen.add(chan.name)
            total += chan.bytes_moved
        return total
