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
``runtime/executor.py``).  Two engine-side contracts make that safe:

* :meth:`reserve_seq` / :meth:`post_reserved` let a component draw sequence
  numbers at *intent* time and post the heap entry later, so the engine's
  ``seq`` stream — and therefore every tie-break — evolves exactly as if one
  event had been posted per action;
* :attr:`inline_horizon` bounds how far a fused chain may advance the clock
  without consulting the heap.  It is ``+inf`` during a plain
  run-to-exhaustion, ``until`` during :meth:`run` with a horizon, and
  ``-inf`` when ``max_events`` is set — the latter disables fusion entirely
  so the event budget counts every action, keeping the livelock valve exact.

Fused actions do not increment :attr:`events_fired`: the counter reports
engine dispatches, and collapsing bookkeeping chains into fewer dispatches
is precisely the optimization being measured (perfbench's
``events_per_task`` column tracks it across recordings).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.errors import SimulationError

_INF = float("inf")


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
        #: latest virtual time up to which external components may process
        #: fused actions inline without going through the heap.  See module
        #: docstring ("Inline event fusion").
        self.inline_horizon: float = _INF
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

    def post_reserved(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple = (),
    ) -> None:
        """Post an entry carrying a :meth:`reserve_seq`-drawn sequence number.

        The caller owns the ordering contract: ``seq`` must have been reserved
        after every already-posted entry the action must follow (reserving at
        intent time guarantees this).
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now={self.now}"
            )
        heapq.heappush(self._heap, (time, seq, callback, args))

    # -------------------------------------------------------------------- run

    def step(self) -> bool:
        """Fire the next pending event.  Returns ``False`` if the heap is empty."""
        heap = self._heap
        if not heap:
            return False
        entry = heapq.heappop(heap)
        self.now = entry[0]
        self._events_fired += 1
        entry[2](*entry[3])
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events until the heap is empty.

        Parameters
        ----------
        until:
            Optional virtual-time horizon; events strictly after it stay
            queued and the clock is advanced to ``until`` — also when the heap
            drains before the horizon is reached, so ``now == until`` holds on
            return regardless of how much work was actually queued.  Fused
            dispatch loops honour the same horizon via
            :attr:`inline_horizon`.
        max_events:
            Optional safety valve for tests; raises :class:`SimulationError`
            *before* firing the ``max_events + 1``-th event (a symptom of a
            livelocked model), so a runaway model cannot mutate state past
            the limit.  Setting it disables inline fusion for the duration of
            the run (``inline_horizon = -inf``) so the budget counts every
            action exactly.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        if until is None and max_events is None:
            # Run-to-exhaustion fast path (the shape every full simulation
            # uses): the pop/dispatch of :meth:`step` inlined, saving a method
            # call and a bounds re-check per event.
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
            return
        self.inline_horizon = -_INF if max_events is not None else until
        fired = 0
        try:
            heap = self._heap
            while heap:
                if until is not None and heap[0][0] > until:
                    break
                if max_events is not None and fired >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; model livelock?"
                    )
                if not self.step():
                    break
                fired += 1
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
            self.inline_horizon = _INF

    @property
    def pending(self) -> int:
        """Number of queued heap entries.

        A fused dispatch loop's single queued entry may stand for a whole
        batch of pending actions (the runtime's submission pump), so this is
        a lower bound on outstanding work.
        """
        return len(self._heap)

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero."""
        self._heap.clear()
        self.now = 0.0
        self.inline_horizon = _INF
        self._seq = 0
        self._events_fired = 0
