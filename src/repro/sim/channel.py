"""Bandwidth channels.

A :class:`Channel` models one direction of a physical interconnect (an NVLink
pair, one direction of a PCIe x16 host link, a device-local copy engine...).
Transfers submitted to a channel serialize FIFO — exactly what a DMA engine
does — so the busy time of the channel is the natural measure of contention.

Shared links (the DGX-1 PCIe switch in front of two GPUs, see DESIGN.md) are
modelled by handing the *same* channel object to both GPUs: their host
transfers then queue behind each other, which reproduces the PCIe bottleneck
the paper's optimistic heuristic sidesteps.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class Channel:
    """A FIFO bandwidth channel.

    Parameters
    ----------
    sim:
        Owning simulator (provides the clock).
    bandwidth:
        Sustained bandwidth in bytes/second. Must be positive.
    latency:
        Fixed per-transfer setup latency in seconds.
    name:
        Human-readable identifier used in traces and error messages.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        latency: float = 0.0,
        name: str = "channel",
    ) -> None:
        if bandwidth <= 0:
            raise SimulationError(f"channel {name!r}: bandwidth must be > 0")
        if latency < 0:
            raise SimulationError(f"channel {name!r}: latency must be >= 0")
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.name = name
        #: virtual time at which the FIFO backlog drains; written only by
        #: reserve/occupy.  A plain attribute: the fabric reads it on every
        #: transfer-cost estimate, where property dispatch is measurable.
        self.busy_until = 0.0
        self.bytes_moved = 0
        self.transfer_count = 0

    # ------------------------------------------------------------------ model

    def reserve(self, nbytes: int, earliest: float | None = None) -> tuple[float, float]:
        """Reserve the channel for ``nbytes`` and return ``(start, end)``.

        ``earliest`` is the virtual time at which the transfer *could* start
        (e.g. when the source data becomes valid); the actual start also waits
        for the channel to drain its FIFO backlog.  The reservation is made
        immediately — callers then schedule their completion callback at
        ``end``.
        """
        if nbytes < 0:
            raise SimulationError(f"channel {self.name!r}: negative size {nbytes}")
        # The two max() calls are inlined: reservations happen per simulated
        # DMA and the call overhead was visible in large runs.
        now = self.sim.now
        if earliest is not None and earliest > now:
            now = earliest
        busy = self.busy_until
        start = busy if busy > now else now
        # Parenthesized as start + (latency + size/bw): the duration is
        # rounded before it is added, and every recorded makespan bit (and
        # Fabric.estimate, which predicts this end) depends on that order.
        end = start + (self.latency + nbytes / self.bandwidth)
        self.busy_until = end
        self.bytes_moved += nbytes
        self.transfer_count += 1
        return start, end

    def reserve_batch(
        self, requests: "list[tuple[int, float]]"
    ) -> "list[tuple[float, float]]":
        """Reserve the channel for several transfers in one call.

        ``requests`` is a sequence of ``(nbytes, earliest)`` pairs, in FIFO
        submission order.  Returns one ``(start, end)`` pair per request.

        Contract: the results are **bit-identical** to issuing the same
        sequence of :meth:`reserve` calls one by one — same float operation
        order, same FIFO chaining through ``busy_until``, same traffic
        counters.  Nothing in the runtime calls it: eviction reserves each
        write-back with :meth:`reserve` as it goes.  It stays, with its
        tests, because the layer hook tables of ``e2ebench/layers.py`` and
        ``repro.bench.layers`` name it.
        """
        now = self.sim.now
        busy = self.busy_until
        latency = self.latency
        bandwidth = self.bandwidth
        out: list[tuple[float, float]] = []
        moved = 0
        for nbytes, earliest in requests:
            if nbytes < 0:
                raise SimulationError(
                    f"channel {self.name!r}: negative size {nbytes}"
                )
            lb = now
            if earliest is not None and earliest > lb:
                lb = earliest
            start = busy if busy > lb else lb
            # Same parenthesization as reserve(): start + (latency + size/bw).
            busy = start + (latency + nbytes / bandwidth)
            out.append((start, busy))
            moved += nbytes
        self.busy_until = busy
        self.bytes_moved += moved
        self.transfer_count += len(out)
        return out

    def occupy(self, start: float, end: float, nbytes: int) -> None:
        """Account an externally-timed transfer occupying ``[start, end)``.

        Used when a route spans several channels and one reservation sets the
        timing for all of them (e.g. a PCIe peer transfer riding both host
        pipes): the fabric computes one interval and occupies each channel
        for it.  The channel's FIFO backlog is pushed to at least ``end`` and
        the traffic counters are updated, exactly as :meth:`reserve` would.
        """
        if end < start:
            raise SimulationError(
                f"channel {self.name!r}: occupation ends before it starts "
                f"[{start}, {end})"
            )
        if nbytes < 0:
            raise SimulationError(f"channel {self.name!r}: negative size {nbytes}")
        self.busy_until = max(self.busy_until, end)
        self.bytes_moved += nbytes
        self.transfer_count += 1

    # ------------------------------------------------------------- inspection

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Channel({self.name!r}, bw={self.bandwidth / 1e9:.1f} GB/s, "
            f"busy_until={self.busy_until:.6f})"
        )
