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
