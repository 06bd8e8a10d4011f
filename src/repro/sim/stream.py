"""CUDA-like streams.

A :class:`Stream` is an in-order execution lane: operations submitted to the
same stream serialize, operations on different streams may overlap in virtual
time.  Each executor worker (``_Worker`` in :mod:`repro.runtime.executor`)
owns exactly one compute stream, its device's kernel engine — copy "streams"
are represented by :class:`~repro.sim.channel.Channel` objects since their
duration is bandwidth-bound rather than compute-bound.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class Stream:
    """An in-order lane of timed operations on a simulated device."""

    def __init__(self, sim: Simulator, name: str = "stream") -> None:
        self.sim = sim
        self.name = name
        #: virtual time at which the lane's backlog drains.  A plain attribute
        #: (written only by :meth:`reserve`): the executor polls it on every
        #: wake round, where a property dispatch is measurable.
        self.busy_until = 0.0
        self.ops = 0

    def reserve(self, duration: float, earliest: float | None = None) -> tuple[float, float]:
        """Append an operation of ``duration`` seconds to the lane.

        Returns the ``(start, end)`` interval.  ``earliest`` lower-bounds the
        start time (e.g. kernel inputs arriving); the lane's previous backlog
        also does.
        """
        if duration < 0:
            raise SimulationError(f"stream {self.name!r}: negative duration")
        # The two max() calls, inlined: one reservation per launched kernel,
        # and the builtin-call overhead was visible in large runs.
        now = self.sim.now
        if earliest is not None and earliest > now:
            now = earliest
        busy = self.busy_until
        start = busy if busy > now else now
        end = start + duration
        self.busy_until = end
        self.ops += 1
        return start, end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Stream({self.name!r}, busy_until={self.busy_until:.6f}, ops={self.ops})"
