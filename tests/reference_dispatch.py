"""Reference dispatch models for the simulator core.

Production runs one dispatch path: ``Simulator.run`` drains the heap to
exhaustion, and the executor's submission pump folds every submission the
engine would have dispatched next anyway into the event already running.
The slower shapes that path replaced live here, as the models tests compare
it against:

* :func:`unfold` — the *unfolded* pump: one engine event per submission,
  seqs reserved at intent time by the production ``Executor._admit``, so
  every folded run must reproduce it in everything but ``events_fired``;
* :func:`advance` — fire the events up to a virtual time and move the clock
  there, for tests that step a runtime between direct calls;
* :func:`drain_within` — run to exhaustion under an event budget, so a
  livelocked model fails the test instead of hanging it.
"""

from __future__ import annotations

import heapq

from repro.runtime.api import Runtime
from repro.sim.engine import Simulator


def unfold(rt: Runtime) -> None:
    """Make ``rt`` dispatch one engine event per submission.

    Call it before the first submission: ``_admit`` arms the pump it finds
    on the executor, and an armed folding pump would fold.
    """
    ex = rt.executor
    sim = rt.sim

    def pump() -> None:
        pending = ex._submissions
        ex._pumping = True
        try:
            _t, _seq, task, streamed = pending.popleft()
            if streamed:
                ex._pull_next()
            task.submitted = True
            if task.state == "ready":
                ex._enqueue(task)
            if pending:
                sim.post_reserved(pending[0][0], pending[0][1], ex._pump)
        finally:
            ex._pumping = False

    ex._pump = pump


def _fire_next(sim: Simulator) -> None:
    time, _seq, callback, args = heapq.heappop(sim._heap)
    sim.now = time
    sim._events_fired += 1
    callback(*args)


def advance(sim: Simulator, t: float) -> None:
    """Fire every event at or before ``t``, then move the clock to ``t``
    (never back)."""
    heap = sim._heap
    while heap and heap[0][0] <= t:
        _fire_next(sim)
    if sim.now < t:
        sim.now = t


def drain_within(rt: Runtime, budget: int) -> float:
    """``rt.sync()``, failing before the ``budget + 1``-th engine event."""
    heap = rt.sim._heap
    for _ in range(budget):
        if not heap:
            break
        _fire_next(rt.sim)
    if heap:
        raise AssertionError(f"more than {budget} engine events; model livelock?")
    return rt.sync()
