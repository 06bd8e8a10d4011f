"""Tests for the coherence directory, including the under-transfer metadata
that implements the paper's optimistic heuristic (§III-C)."""

import re

import pytest

from repro.errors import CoherenceError
from repro.memory.coherence import CoherenceDirectory, ReplicaState
from repro.memory.tile import TileKey
from repro.topology.link import HOST
from tests.directory_views import in_flight_to, is_valid, valid_devices

K = TileKey(0, 0, 0)


def _directory() -> tuple[CoherenceDirectory, int]:
    d = CoherenceDirectory()
    return d, d.lookup(K)


def test_tiles_start_host_valid():
    d, k = _directory()
    assert d.host_valid(k)
    assert valid_devices(d, k) == []
    assert d.state(k, HOST) is ReplicaState.SHARED


def test_transfer_lifecycle():
    d, k = _directory()
    d.begin_transfer(k, dst=1, completes_at=2.0, source=HOST)
    assert not is_valid(d, k, 1)
    flight = in_flight_to(d, k, 1)
    assert flight is not None and flight.completes_at == 2.0
    assert d.complete_transfer(k, 1) is True
    assert d.state(k, 1) is ReplicaState.SHARED
    assert in_flight_to(d, k, 1) is None


def test_duplicate_flight_to_same_destination_rejected():
    d, k = _directory()
    d.begin_transfer(k, 1, 2.0, HOST)
    with pytest.raises(CoherenceError):
        d.begin_transfer(k, 1, 3.0, HOST)


def test_transfer_to_already_valid_destination_rejected():
    d, k = _directory()
    # Errors name the tile through the directory's interned key table.
    with pytest.raises(CoherenceError, match=re.escape(f"{K}: destination")):
        d.begin_transfer(k, HOST, 1.0, 0)


def test_complete_without_flight_rejected():
    d, k = _directory()
    with pytest.raises(CoherenceError):
        d.complete_transfer(k, 1)


def test_write_invalidates_everything_and_bumps_generation():
    d, k = _directory()
    d.begin_transfer(k, 1, 1.0, HOST)
    d.complete_transfer(k, 1)
    d.begin_transfer(k, 2, 2.0, 1)
    gen = d.generation(k)
    d.write(k, 3)
    assert d.generation(k) == gen + 1
    assert valid_devices(d, k) == [3]
    assert d.modified_location(k) == 3
    assert not d.host_valid(k)
    assert in_flight_to(d, k, 2) is None  # flight record dropped


def test_stale_flight_completion_is_dropped():
    d, k = _directory()
    d.begin_transfer(k, 1, 1.0, HOST)
    d.write(k, 2)
    # The flight record is gone after the write; a late completion of a
    # *re-issued* transfer under the old generation must be dropped.
    d.begin_transfer(k, 1, 2.0, 2)
    in_flight_to(d, k, 1).generation -= 1  # simulate stale generation
    assert d.complete_transfer(k, 1) is False
    assert not is_valid(d, k, 1)


def test_downgrade_modified_to_shared():
    d, k = _directory()
    d.write(k, 0)
    d.downgrade(k, 0)
    assert d.state(k, 0) is ReplicaState.SHARED
    with pytest.raises(CoherenceError):
        d.downgrade(k, 0)  # already shared


def test_modified_source_can_serve_readers():
    """MODIFIED behaves like MOSI's Owned: SHARED copies may coexist."""
    d, k = _directory()
    d.write(k, 0)
    d.begin_transfer(k, 1, 1.0, 0)
    assert d.complete_transfer(k, 1)
    assert d.state(k, 0) is ReplicaState.MODIFIED
    assert d.state(k, 1) is ReplicaState.SHARED
    assert sorted(valid_devices(d, k)) == [0, 1]


def test_evict_shared_ok_modified_rejected():
    d, k = _directory()
    d.begin_transfer(k, 1, 1.0, HOST)
    d.complete_transfer(k, 1)
    d.evict(k, 1)
    assert valid_devices(d, k) == []
    d.write(k, 2)
    # Forward a SHARED copy from the owner first: the owner is then not the
    # last replica, so only the MODIFIED check can refuse its eviction.
    d.begin_transfer(k, 3, 2.0, 2)
    d.complete_transfer(k, 3)
    with pytest.raises(CoherenceError, match="MODIFIED"):
        d.evict(k, 2)


def test_evict_missing_replica_rejected():
    d, k = _directory()
    with pytest.raises(CoherenceError):
        d.evict(k, 4)


def test_evict_last_replica_rejected():
    d, k = _directory()
    d.seed_device(k, 0, exclusive=True)
    d.downgrade(k, 0)
    with pytest.raises(CoherenceError, match="last replica"):
        d.evict(k, 0)


def test_refused_evict_changes_nothing():
    d, k = _directory()
    d.seed_device(k, 0, exclusive=True)
    d.seed_device(k, 0, exclusive=False)  # the owner's copy, now SHARED
    before = d.replicas(k)
    with pytest.raises(CoherenceError, match="last replica"):
        d.evict(k, 0)
    assert d.replicas(k) == before == {0: ReplicaState.SHARED}


def test_seed_device_exclusive_drops_host():
    d, k = _directory()
    d.seed_device(k, 2, exclusive=True)
    assert not d.host_valid(k)
    assert d.modified_location(k) == 2


def test_seed_device_shared_keeps_host():
    d, k = _directory()
    d.seed_device(k, 2, exclusive=False)
    assert d.host_valid(k)
    assert d.state(k, 2) is ReplicaState.SHARED


def test_invalidate_device_replicas_restores_host():
    d, k = _directory()
    d.write(k, 1)
    d.invalidate_device_replicas(k)
    assert d.host_valid(k)
    assert valid_devices(d, k) == []
