"""Tests for in-order streams."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.stream import Stream


def test_operations_serialize():
    stream = Stream(Simulator())
    s1, e1 = stream.reserve(1.0)
    s2, e2 = stream.reserve(2.0)
    assert (s1, e1) == (0.0, 1.0)
    assert (s2, e2) == (1.0, 3.0)
    assert stream.busy_until == 3.0
    assert stream.ops == 2


def test_earliest_delays_start():
    stream = Stream(Simulator())
    start, end = stream.reserve(1.0, earliest=10.0)
    assert (start, end) == (10.0, 11.0)


def test_backlog_dominates_earliest():
    stream = Stream(Simulator())
    stream.reserve(5.0)
    start, _ = stream.reserve(1.0, earliest=2.0)
    assert start == 5.0


def test_negative_duration_rejected():
    with pytest.raises(SimulationError):
        Stream(Simulator()).reserve(-1.0)


def test_available_at():
    # An op starts at max(earliest, backlog): zero-length probes leave the
    # backlog where the first op put it.
    stream = Stream(Simulator())
    stream.reserve(3.0)
    assert stream.reserve(0.0, earliest=1.0)[0] == 3.0
    assert stream.reserve(0.0, earliest=4.0)[0] == 4.0


def test_zero_duration_op_allowed():
    stream = Stream(Simulator())
    s, e = stream.reserve(0.0)
    assert s == e == 0.0
