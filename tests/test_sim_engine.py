"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.post(3.0, lambda: fired.append(3))
    sim.post(1.0, lambda: fired.append(1))
    sim.post(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1, 2, 3]
    assert sim.now == 3.0


def test_simultaneous_events_fire_in_submission_order():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.post(1.0, lambda i=i: fired.append(i))
    sim.run()
    assert fired == list(range(10))


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.post(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.post(0.5, lambda: None)


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 5:
            sim.post(sim.now + 1.0, lambda: chain(depth + 1))

    sim.post(0.0, lambda: chain(0))
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5.0


def test_run_until_horizon_leaves_future_events_queued():
    sim = Simulator()
    fired = []
    sim.post(1.0, lambda: fired.append(1))
    sim.post(10.0, lambda: fired.append(10))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0
    assert sim.pending == 1
    sim.run()
    assert fired == [1, 10]


def test_run_until_advances_clock_when_heap_drains_early():
    # Regression (PR 2): ``run(until=T)`` used to leave the clock at the last
    # event's time when the heap drained before the horizon, so a subsequent
    # ``post(now + dt)`` could land in the caller's past.
    sim = Simulator()
    fired = []
    sim.post(1.0, lambda: fired.append(1))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0
    sim.post(5.0, lambda: fired.append(5))  # horizon time is schedulable
    sim.run()
    assert fired == [1, 5]


def test_run_until_with_empty_heap_advances_clock():
    sim = Simulator()
    sim.run(until=3.0)
    assert sim.now == 3.0
    sim.run(until=2.0)  # an earlier horizon never rewinds the clock
    assert sim.now == 3.0


def test_max_events_fires_exactly_the_budget():
    # Regression (PR 2): the guard used to fire the N+1-th event and only
    # then raise; the budget must be a hard cap on events *fired*.
    sim = Simulator()
    fired = []

    def respawn():
        fired.append(sim.now)
        sim.post(sim.now + 1.0, respawn)

    sim.post(0.0, respawn)
    with pytest.raises(SimulationError, match="livelock"):
        sim.run(max_events=7)
    assert len(fired) == 7
    assert sim.events_fired == 7


def test_max_events_sufficient_budget_completes_without_error():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.post(float(i), lambda i=i: fired.append(i))
    sim.run(max_events=5)
    assert fired == [0, 1, 2, 3, 4]


def test_max_events_guards_against_livelock():
    sim = Simulator()

    def respawn():
        sim.post(sim.now + 1.0, respawn)

    sim.post(0.0, respawn)
    with pytest.raises(SimulationError, match="livelock"):
        sim.run(max_events=100)


def test_step_returns_false_when_empty():
    assert Simulator().step() is False


def test_reset_clears_everything():
    sim = Simulator()
    sim.post(1.0, lambda: None)
    sim.run()
    sim.post(2.0, lambda: None)
    sim.reset()
    assert sim.now == 0.0
    assert sim.pending == 0


def test_run_not_reentrant():
    sim = Simulator()
    seen = []

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()
        seen.append(True)

    sim.post(0.0, reenter)
    sim.run()
    assert seen == [True]


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_property_events_fire_in_nondecreasing_time(times):
    sim = Simulator()
    observed = []
    for t in times:
        sim.post(t, lambda t=t: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(times)
    assert sim.events_fired == len(times)
