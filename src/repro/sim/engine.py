"""The discrete-event simulator.

A minimal, deterministic event engine: a binary heap of timestamped entries
and a virtual clock.  Every hardware model in :mod:`repro` (links, streams,
device workers) schedules callbacks here; running the heap to exhaustion
executes one full BLAS invocation on the simulated platform.

The engine is deliberately single-threaded.  Parallelism of the modelled
machine lives entirely in virtual time: two kernels on different simulated
streams overlap because their ``[start, end)`` intervals overlap, not because
host threads run concurrently.  This is the standard discrete-event approach
and makes every run bit-reproducible.

Heap entries are plain ``(time, seq, callback, args)`` tuples: ``heapq``
compares native floats and ints (the tie-breaking ``seq`` is unique, so
comparison never reaches the callback), and the dispatch loop calls
``callback(*args)`` straight from the entry — no handle object is allocated
per event.  Events are fire-and-forget: nothing in the runtime ever needs to
withdraw one (a kernel or transfer completion always happens), so the engine
has no cancellation.

Inline event fusion
-------------------

External components may *fuse* events: process a chain of consecutive
pending actions inside one engine event instead of round-tripping each
through the heap (the runtime's submission pump does this — see
``runtime/executor.py``).  :meth:`reserve_seq` / :meth:`post_reserved` make
that safe: a component draws sequence numbers at *intent* time and posts the
heap entry later, so the engine's ``seq`` stream — and therefore every
tie-break — evolves exactly as if one event had been posted per action.  A
fused chain keeps going only while its next ``(time, seq)`` precedes the
heap top, i.e. while the engine would have dispatched it next anyway.

Fused actions do not increment :attr:`events_fired`: the counter reports
engine dispatches, and collapsing bookkeeping chains into fewer dispatches
is precisely the optimization being measured (perfbench's
``events_per_task`` column tracks it across recordings).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.errors import SimulationError


class Simulator:
    """Virtual clock + event heap.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.post(2.0, lambda: fired.append("b"))
    >>> sim.post(1.0, lambda: fired.append("a"))
    >>> sim.run()
    >>> fired
    ['a', 'b']
    >>> sim.now
    2.0
    """

    def __init__(self) -> None:
        self._heap: list = []
        #: current virtual time in seconds.  A plain attribute, written only
        #: by the engine itself and by fused dispatch loops (see module
        #: docstring): the runtime reads the clock on every scheduling
        #: decision, where a property dispatch is measurable.
        self.now: float = 0.0
        self._seq: int = 0
        self._running = False
        self._events_fired = 0

    # ------------------------------------------------------------------ clock

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (diagnostic).

        Counts engine dispatches: actions fused inline into one dispatch by
        the runtime (see module docstring) count once, not per action.
        """
        return self._events_fired

    # --------------------------------------------------------------- schedule

    def post(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Queue ``callback(*args)`` at absolute virtual time ``time``.

        ``time`` must not be in the past; posting *at* the current time is
        allowed and fires after all previously-posted events at that time.
        Extra positional ``args`` are stored in the heap entry and passed to
        the callback — posting a bound method with its arguments this way
        avoids allocating a closure per event on the hot path.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, callback, args))

    def reserve_seq(self) -> int:
        """Draw the next sequence number without posting an event.

        Building block of inline fusion: a component that *intends* to act at
        a future instant reserves its tie-break position now and either posts
        the entry later with :meth:`post_reserved` or processes the action
        inline.  Either way the ``seq`` stream — and with it every
        deterministic same-instant ordering — is identical to posting one
        event per action.
        """
        seq = self._seq
        self._seq = seq + 1
        return seq

    def post_reserved(self, time: float, seq: int, callback: Callable[[], Any]) -> None:
        """Post an entry carrying a :meth:`reserve_seq`-drawn sequence number.

        The caller owns the ordering contract: ``seq`` must have been reserved
        after every already-posted entry the action must follow (reserving at
        intent time guarantees this).
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now={self.now}"
            )
        heapq.heappush(self._heap, (time, seq, callback, ()))

    # -------------------------------------------------------------------- run

    def run(self) -> None:
        """Run events until the heap is empty."""
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        # The dispatch counter is kept in a local and flushed once at the
        # end: an attribute store per event is measurable at paper scale,
        # and nothing observable reads ``events_fired`` mid-drain (the
        # property documents end-of-run diagnostics).
        fired = 0
        try:
            while heap:
                entry = pop(heap)
                self.now = entry[0]
                fired += 1
                entry[2](*entry[3])
        finally:
            self._events_fired += fired
            self._running = False
