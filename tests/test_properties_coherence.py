"""Property-based equivalence tests for the array-backed coherence directory.

The hot-path rework replaced the directory's nested
``dict[TileKey, dict[int, ReplicaState]]`` storage with interned integer ids
and per-tile bitmasks.  These tests pin the refactor to the old semantics: a
straightforward dict-based reference model (written from the pre-rework
implementation) and the production :class:`CoherenceDirectory` are driven
through the same random operation sequences, and must agree on

* which operations raise :class:`CoherenceError` (and which succeed),
* every return value (``complete_transfer``'s landed/dropped bool, the
  recorded flight metadata),
* the full observable state after every step — replica maps, host
  validity, per-location states, the MODIFIED owner, generations, and the
  in-flight maps including their insertion order (source-selection
  tie-breaks depend on it, so it is part of the contract).

Hypothesis shrinks any divergence to a minimal op sequence, which makes a
directory bug readable instead of buried in a 4096-tile macro run.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.errors import CoherenceError
from repro.memory.coherence import CoherenceDirectory, ReplicaState
from repro.memory.tile import TileKey
from repro.topology.link import HOST

NDEV = 4
KEYS = [TileKey(matrix_id=7, i=i, j=0) for i in range(3)]


# --------------------------------------------------------------------- model


@dataclasses.dataclass
class _RefFlight:
    dst: int
    completes_at: float
    source: int
    generation: int


class RefDirectory:
    """Dict-based reference model of the pre-rework directory semantics."""

    def __init__(self) -> None:
        self.states: dict[TileKey, dict[int, ReplicaState]] = {}
        self.flights: dict[TileKey, dict[int, _RefFlight]] = {}
        self.gen: dict[TileKey, int] = {}

    def lookup(self, key: TileKey) -> TileKey:
        """The model addresses tiles by key: its "id" is the key itself."""
        return key

    def _entry(self, key: TileKey) -> dict[int, ReplicaState]:
        if key not in self.states:
            self.states[key] = {HOST: ReplicaState.SHARED}
            self.flights[key] = {}
            self.gen[key] = 0
        return self.states[key]

    def begin_transfer(self, key, dst, completes_at, source) -> _RefFlight:
        states = self._entry(key)
        if dst in states:
            raise CoherenceError("destination already holds a replica")
        if dst in self.flights[key]:
            raise CoherenceError("a transfer is already in flight")
        flight = _RefFlight(dst, completes_at, source, self.gen[key])
        self.flights[key][dst] = flight
        return flight

    def complete_transfer(self, key, dst) -> bool:
        self._entry(key)
        flight = self.flights[key].pop(dst, None)
        if flight is None:
            raise CoherenceError("no in-flight transfer")
        if flight.generation != self.gen[key]:
            return False
        self.states[key][dst] = ReplicaState.SHARED
        return True

    def write(self, key, location) -> None:
        self._entry(key)
        self.gen[key] += 1
        self.states[key] = {location: ReplicaState.MODIFIED}
        self.flights[key].clear()

    def downgrade(self, key, location) -> None:
        states = self._entry(key)
        if states.get(location) is not ReplicaState.MODIFIED:
            raise CoherenceError("not MODIFIED")
        states[location] = ReplicaState.SHARED

    def evict(self, key, device) -> None:
        states = self._entry(key)
        if device not in states:
            raise CoherenceError("no replica to evict")
        if states[device] is ReplicaState.MODIFIED:
            raise CoherenceError("cannot evict MODIFIED")
        # Every check runs before the delete: a refused evict changes nothing.
        if len(states) == 1 and not self.flights[key]:
            raise CoherenceError("eviction would destroy the last replica")
        del states[device]

    def discard(self, key, device) -> None:
        states = self._entry(key)
        if device not in states:
            raise CoherenceError("no replica to discard")
        if len(states) == 1 and not self.flights[key]:
            raise CoherenceError("discard would orphan the tile")
        del states[device]

    def seed_device(self, key, device, exclusive) -> None:
        self._entry(key)
        if exclusive:
            self.gen[key] += 1
            self.states[key] = {device: ReplicaState.MODIFIED}
            self.flights[key].clear()
        else:
            self.states[key][device] = ReplicaState.SHARED

    def invalidate_device_replicas(self, key) -> None:
        self._entry(key)
        self.gen[key] += 1
        self.states[key] = {HOST: ReplicaState.SHARED}
        self.flights[key].clear()


# ----------------------------------------------------------------- op driver


def _flight_tuple(f) -> tuple:
    return (f.dst, f.completes_at, f.source, f.generation)


def _apply_both(op, d: CoherenceDirectory, ref: RefDirectory) -> None:
    """Run one op on both models; they must agree on outcome and result."""
    name, key, loc, when, flag = op
    args = {
        "begin_transfer": lambda m: m.begin_transfer(
            m.lookup(key), loc, completes_at=when, source=HOST
        ),
        "complete_transfer": lambda m: m.complete_transfer(m.lookup(key), loc),
        "write": lambda m: m.write(m.lookup(key), loc),
        "downgrade": lambda m: m.downgrade(m.lookup(key), loc),
        "evict": lambda m: m.evict(m.lookup(key), loc),
        "discard": lambda m: m.discard(m.lookup(key), loc),
        "seed_device": lambda m: m.seed_device(m.lookup(key), loc, exclusive=flag),
        "invalidate": lambda m: m.invalidate_device_replicas(m.lookup(key)),
    }[name]
    try:
        got = args(d)
        got_err = None
    except CoherenceError as exc:
        got, got_err = None, exc
    try:
        want = args(ref)
        want_err = None
    except CoherenceError as exc:
        want, want_err = None, exc
    assert (got_err is None) == (want_err is None), (
        f"{name}{(key, loc)}: production "
        f"{'raised ' + repr(got_err) if got_err else 'succeeded'}, reference "
        f"{'raised ' + repr(want_err) if want_err else 'succeeded'}"
    )
    if got_err is None and name == "complete_transfer":
        assert got == want, f"{name}: landed/dropped verdict diverged"
    if got_err is None and name == "begin_transfer":
        assert _flight_tuple(got) == _flight_tuple(want)


def _assert_same_observable_state(d: CoherenceDirectory, ref: RefDirectory):
    for key in KEYS:
        tid = d.lookup(key)
        states = ref._entry(key)
        assert d.replicas(tid) == states, f"{key}: replica map diverged"
        assert d.host_valid(tid) == (HOST in states)
        for loc in range(HOST, NDEV):
            assert d.state(tid, loc) is states.get(loc)
        mod = [l for l, s in states.items() if s is ReplicaState.MODIFIED]
        assert d.modified_location(tid) == (mod[0] if mod else None)
        assert d.generation(tid) == ref.gen[key]
        # In-flight maps must match including insertion order.
        assert [
            _flight_tuple(f) for f in d.flights(tid)
        ] == [_flight_tuple(f) for f in ref.flights[key].values()]


# ----------------------------------------------------------------- strategy

_LOCATIONS = st.integers(HOST, NDEV - 1)

_OPS = st.tuples(
    st.sampled_from(
        [
            "begin_transfer",
            "complete_transfer",
            "write",
            "downgrade",
            "evict",
            "discard",
            "seed_device",
            "invalidate",
        ]
    ),
    st.sampled_from(KEYS),
    _LOCATIONS,
    st.integers(0, 50).map(float),  # completes_at (ints: exact comparison)
    st.booleans(),  # seed_device exclusive
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_OPS, max_size=40))
def test_array_directory_matches_dict_reference(ops):
    d = CoherenceDirectory()
    ref = RefDirectory()
    for op in ops:
        _apply_both(op, d, ref)
        _assert_same_observable_state(d, ref)


@settings(max_examples=50, deadline=None)
@given(st.lists(_OPS, max_size=40))
def test_at_most_one_modified_replica(ops):
    """Protocol invariant: the public mutators never create two owners."""
    d = CoherenceDirectory()
    ref = RefDirectory()
    for op in ops:
        _apply_both(op, d, ref)
        for key in KEYS:
            owners = [
                loc
                for loc, s in d.replicas(d.lookup(key)).items()
                if s is ReplicaState.MODIFIED
            ]
            assert len(owners) <= 1
