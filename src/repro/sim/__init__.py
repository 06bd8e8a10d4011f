"""Discrete-event simulation core.

This subpackage is the hardware-substitution substrate (DESIGN.md §2): it
replaces the physical DGX-1 with an event-driven model of time, bandwidth
channels, CUDA-like streams and an nvprof-like trace recorder.

Public surface:

* :class:`~repro.sim.engine.Simulator` — event heap + virtual clock.
* :class:`~repro.sim.channel.Channel` — FIFO bandwidth channel with latency.
* :class:`~repro.sim.stream.Stream` — in-order execution lane on a device.
* :class:`~repro.sim.trace.TraceRecorder` — interval trace (H2D/D2H/P2P/kernel).
"""

from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.stream import Stream
from repro.sim.trace import Interval, TraceCategory, TraceRecorder

__all__ = [
    "Channel",
    "Interval",
    "Simulator",
    "Stream",
    "TraceCategory",
    "TraceRecorder",
]
