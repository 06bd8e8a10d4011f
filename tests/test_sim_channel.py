"""Tests for FIFO bandwidth channels."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.channel import Channel
from repro.sim.engine import Simulator


def make_channel(bw=1e9, lat=0.0):
    return Channel(Simulator(), bandwidth=bw, latency=lat, name="test")


def test_transfer_time_is_latency_plus_bytes_over_bw():
    chan = make_channel(bw=2e9, lat=1e-6)
    assert chan.reserve(2_000_000_000) == (0.0, pytest.approx(1.0 + 1e-6))


def test_zero_bytes_costs_only_latency():
    chan = make_channel(bw=1e9, lat=5e-6)
    assert chan.reserve(0) == (0.0, pytest.approx(5e-6))


def test_negative_bytes_rejected():
    with pytest.raises(SimulationError):
        make_channel().reserve(-1)


def test_invalid_bandwidth_rejected():
    with pytest.raises(SimulationError):
        Channel(Simulator(), bandwidth=0.0)
    with pytest.raises(SimulationError):
        Channel(Simulator(), bandwidth=1e9, latency=-1.0)


def test_reservations_serialize_fifo():
    chan = make_channel(bw=1e9)
    s1, e1 = chan.reserve(1_000_000_000)  # 1 second
    s2, e2 = chan.reserve(1_000_000_000)
    assert (s1, e1) == (0.0, pytest.approx(1.0))
    assert s2 == pytest.approx(1.0)
    assert e2 == pytest.approx(2.0)
    assert chan.busy_until == pytest.approx(2.0)


def test_earliest_lower_bounds_the_start():
    chan = make_channel(bw=1e9)
    start, end = chan.reserve(1_000, earliest=5.0)
    assert start == 5.0
    assert end > 5.0


def test_earliest_before_backlog_waits_for_backlog():
    chan = make_channel(bw=1e9)
    chan.reserve(1_000_000_000)  # busy until 1.0
    start, _ = chan.reserve(1_000, earliest=0.5)
    assert start == pytest.approx(1.0)


def test_accounting():
    chan = make_channel()
    chan.reserve(100)
    chan.reserve(200)
    assert chan.bytes_moved == 300
    assert chan.transfer_count == 2


def test_occupy_blocks_interval_and_accounts():
    # The public API for externally-timed occupancy (PCIe-peer routes charge
    # both host pipes for an interval the fabric computed itself).
    chan = make_channel(bw=1e9)
    chan.occupy(2.0, 5.0, nbytes=300)
    assert chan.busy_until == 5.0
    assert chan.bytes_moved == 300
    assert chan.transfer_count == 1
    start, _ = chan.reserve(1_000)  # FIFO: queued behind the occupancy
    assert start == pytest.approx(5.0)


def test_occupy_never_rewinds_busy_until():
    chan = make_channel(bw=1e9)
    chan.reserve(1_000_000_000)  # busy until 1.0
    chan.occupy(0.1, 0.2, nbytes=10)
    assert chan.busy_until == pytest.approx(1.0)


def test_occupy_rejects_invalid_intervals():
    chan = make_channel()
    with pytest.raises(SimulationError):
        chan.occupy(2.0, 1.0, nbytes=10)
    with pytest.raises(SimulationError):
        chan.occupy(0.0, 1.0, nbytes=-1)


def test_reserve_batch_bit_identical_to_sequential():
    """The contract: a batch reservation must be bit-for-bit the same as the
    equivalent sequence of single ``reserve`` calls — starts, ends,
    ``busy_until`` and traffic counters, compared with ``==``."""
    requests = [
        (1_000_000_000, 0.0),
        (3, 0.5),
        (0, 7.25),
        (123_456_789, 0.0),
        (1, 1e-9),
    ]
    seq = make_channel(bw=3e9, lat=1.7e-6)
    batch = make_channel(bw=3e9, lat=1.7e-6)
    expected = [seq.reserve(nbytes, earliest=e) for nbytes, e in requests]
    got = batch.reserve_batch(requests)
    assert got == expected
    assert batch.busy_until == seq.busy_until
    assert batch.bytes_moved == seq.bytes_moved
    assert batch.transfer_count == seq.transfer_count


def test_reserve_batch_rejects_negative_size_atomically():
    """State mutations land after the loop, so a bad request leaves the
    channel untouched — no half-applied backlog or counters."""
    chan = make_channel(bw=1e9)
    with pytest.raises(SimulationError):
        chan.reserve_batch([(100, 0.0), (-1, 0.0)])
    assert chan.busy_until == 0.0
    assert chan.bytes_moved == 0
    assert chan.transfer_count == 0


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10**9),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        min_size=1,
        max_size=20,
    ),
    st.floats(min_value=1e6, max_value=1e11),
)
def test_property_reserve_batch_matches_sequential(requests, bw):
    seq = Channel(Simulator(), bandwidth=bw, latency=1e-7)
    batch = Channel(Simulator(), bandwidth=bw, latency=1e-7)
    expected = [seq.reserve(nbytes, earliest=e) for nbytes, e in requests]
    assert batch.reserve_batch(requests) == expected
    assert batch.busy_until == seq.busy_until
    assert batch.bytes_moved == seq.bytes_moved


@given(
    st.lists(st.integers(min_value=1, max_value=10**9), min_size=1, max_size=30),
    st.floats(min_value=1e6, max_value=1e11),
)
def test_property_fifo_intervals_never_overlap(sizes, bw):
    chan = Channel(Simulator(), bandwidth=bw, latency=1e-7)
    intervals = [chan.reserve(nbytes) for nbytes in sizes]
    for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
        assert e1 <= s2  # FIFO: next starts after previous ends
        assert s2 < e2
    total_bytes = sum(sizes)
    assert chan.busy_until >= total_bytes / bw
