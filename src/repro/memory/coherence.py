"""Tile coherence directory.

Tracks, for every tile, which locations hold a valid replica — a simplified
MOSI protocol like the XKaapi software cache the paper builds on (§II-C,
§III-A), with one extension that *is* the paper's second contribution: the
metadata also records replicas **under transfer** ("a state indicating that a
data is under transfer to a specific GPU", §III-C), so the transfer manager
can optimistically chain a device-to-device forward onto an in-flight
host-to-device copy instead of issuing a second PCIe transfer.

States per (tile, location):

* ``INVALID`` — no replica (the default; absent from the maps).
* ``SHARED`` — a valid read replica; any number of locations may be SHARED.
* ``MODIFIED`` — the unique up-to-date replica after a write; every other
  location is invalidated.

The host is location :data:`~repro.topology.link.HOST` (-1).

Storage layout
--------------

The directory is *array-backed*: tiles are interned to dense integer ids on
first touch, and per-tile state lives in parallel lists indexed by that id —

* ``_valid[tid]`` — bitmask of locations holding a valid replica, where
  location ``loc`` occupies bit ``loc + 1`` (so the host, ``-1``, is bit 0);
* ``_mod[tid]`` — bitmask of locations whose replica is ``MODIFIED`` (at most
  one bit in any protocol-legal state; kept as a mask rather than a single
  int so the verification suite can still seed the multi-owner states it
  detects);
* ``_gen[tid]`` — the tile generation guarding against ABA on flights;
* ``_flights[tid]`` — ``dst -> InFlight``, insertion-ordered like the dict
  the previous implementation used (source-selection tie-breaks depend on
  that order, so it is part of the contract).  A landing that empties the
  dict clears it, releasing the table it grew to;
* ``_fmask[tid]`` — bitmask of destinations with a live in-flight transfer
  (same ``loc + 1`` bit layout as ``_valid``).  Redundant with the keys of
  ``_flights[tid]`` by construction; it exists so the transfer hot path can
  answer the overwhelmingly common "no transfer in flight" with one bit test
  instead of a list index plus a dict probe.

Every state transition is therefore O(1) integer arithmetic instead of a
nested ``dict[TileKey, dict[int, ReplicaState]]`` walk — this directory sits
on the hot path of every simulated transfer and kernel completion (BLASX
attributes its multi-GPU win to exactly such an O(1) coherence layer).  A
caller interns a key once with :meth:`CoherenceDirectory.lookup` and passes
the id to every query and transition.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.errors import CoherenceError
from repro.memory.tile import TileKey
from repro.topology.link import HOST

#: bit of a location inside the ``_valid``/``_mod`` masks (host ``-1`` -> 0).
_HOST_BIT = 1 << (HOST + 1)


class ReplicaState(enum.Enum):
    SHARED = "S"
    MODIFIED = "M"


@dataclasses.dataclass(slots=True)
class InFlight:
    """An in-flight transfer of one tile to ``dst``.

    ``completes_at`` is the virtual time the replica becomes valid; ``source``
    is where the bytes come from (device id or HOST).  ``generation`` guards
    against ABA: a write invalidates outstanding flights by bumping the tile
    generation.
    """

    dst: int
    completes_at: float
    source: int
    generation: int


class CoherenceDirectory:
    """Replica states and in-flight metadata for all tiles of one execution.

    Tiles start host-valid by default (``data-on-host`` scenario).  The
    data-on-device scenario seeds device replicas via :meth:`seed_device`.
    """

    def __init__(self) -> None:
        self._ids: dict[TileKey, int] = {}
        self._tile_keys: list[TileKey] = []
        self._valid: list[int] = []
        self._mod: list[int] = []
        self._gen: list[int] = []
        self._flights: list[dict[int, InFlight]] = []
        self._fmask: list[int] = []

    # ------------------------------------------------------------- interning

    def lookup(self, key: TileKey) -> int:
        """Dense integer id of ``key``, interning it host-valid on first use."""
        tid = self._ids.get(key)
        if tid is None:
            tid = len(self._tile_keys)
            self._ids[key] = tid
            self._tile_keys.append(key)
            self._valid.append(_HOST_BIT)
            self._mod.append(0)
            self._gen.append(0)
            self._flights.append({})
            self._fmask.append(0)
        return tid

    def keys(self) -> list[TileKey]:
        """All tiles the directory has an entry for (verification/inspection)."""
        return list(self._tile_keys)

    # -------------------------------------------------------------- queries
    #
    # Every query and transition below takes the tile id :meth:`lookup`
    # returned; error messages read the key back from the interned table.

    def state(self, tid: int, location: int) -> ReplicaState | None:
        """State of the replica at ``location`` (None == INVALID)."""
        bit = 1 << (location + 1)
        if not self._valid[tid] & bit:
            return None
        return ReplicaState.MODIFIED if self._mod[tid] & bit else ReplicaState.SHARED

    def host_valid(self, tid: int) -> bool:
        return bool(self._valid[tid] & _HOST_BIT)

    def modified_location(self, tid: int) -> int | None:
        """Location holding the MODIFIED replica, if any."""
        m = self._mod[tid]
        if not m:
            return None
        return (m & -m).bit_length() - 2

    def generation(self, tid: int) -> int:
        return self._gen[tid]

    def replicas(self, tid: int) -> dict[int, ReplicaState]:
        """Snapshot of every replica state of the tile (location -> state)."""
        mod = self._mod[tid]
        out: dict[int, ReplicaState] = {}
        m = self._valid[tid]
        while m:
            low = m & -m
            out[low.bit_length() - 2] = (
                ReplicaState.MODIFIED if mod & low else ReplicaState.SHARED
            )
            m ^= low
        return out

    # ------------------------------------------------------------ in-flight

    def flights(self, tid: int) -> list[InFlight]:
        """All live in-flight transfers of the tile, in insertion order."""
        return list(self._flights[tid].values())

    def begin_transfer(
        self, tid: int, dst: int, completes_at: float, source: int
    ) -> InFlight:
        """Record a transfer of the tile toward ``dst`` finishing at ``completes_at``.

        The source must currently be valid or itself have an in-flight replica
        that completes no later than the new transfer begins — the transfer
        manager guarantees this by chaining start times.
        """
        if self._valid[tid] & (1 << (dst + 1)):
            raise CoherenceError(
                f"{self._tile_keys[tid]}: destination {dst} already holds a replica"
            )
        flights = self._flights[tid]
        if dst in flights:
            raise CoherenceError(
                f"{self._tile_keys[tid]}: a transfer to {dst} is already in flight"
            )
        flight = InFlight(dst, completes_at, source, self._gen[tid])
        flights[dst] = flight
        self._fmask[tid] |= 1 << (dst + 1)
        return flight

    def complete_transfer(self, tid: int, dst: int) -> bool:
        """Finish the in-flight transfer to ``dst``.

        Returns True if the replica became valid, False when a concurrent
        write invalidated the flight (stale generation) — in that case the
        arriving bytes are dropped, as a real runtime would discard an
        invalidated copy.
        """
        flights = self._flights[tid]
        flight = flights.pop(dst, None)
        if flight is None:
            raise CoherenceError(
                f"{self._tile_keys[tid]}: no in-flight transfer to {dst}"
            )
        if not flights:
            # Release the table the dict grew to; clear() keeps the object,
            # which the transfer manager aliases.
            flights.clear()
        bit = 1 << (dst + 1)
        self._fmask[tid] &= ~bit
        if flight.generation != self._gen[tid]:
            return False
        self._valid[tid] |= bit
        self._mod[tid] &= ~bit  # landing a copy installs a SHARED replica
        return True

    # --------------------------------------------------------------- writes

    def write(self, tid: int, location: int) -> None:
        """A task wrote the tile at ``location``: unique MODIFIED replica.

        All other replicas (host included) and all in-flight transfers are
        invalidated; the tile generation advances.
        """
        bit = 1 << (location + 1)
        self._gen[tid] += 1
        self._valid[tid] = bit
        self._mod[tid] = bit
        self._flights[tid].clear()
        self._fmask[tid] = 0

    def downgrade(self, tid: int, location: int) -> None:
        """MODIFIED -> SHARED after the dirty replica has been copied elsewhere."""
        bit = 1 << (location + 1)
        if not (self._valid[tid] & bit and self._mod[tid] & bit):
            raise CoherenceError(f"{self._tile_keys[tid]}: {location} is not MODIFIED")
        self._mod[tid] &= ~bit

    # -------------------------------------------------------------- eviction

    def evict(self, tid: int, device: int) -> None:
        """Drop the SHARED replica at ``device``.

        Only SHARED replicas are evictable directly; a MODIFIED replica must
        be written back (copied + :meth:`downgrade`) first.  The XKaapi
        eviction policy prioritizing read-only data first makes this the
        common case.  A refused eviction changes nothing.
        """
        bit = 1 << (device + 1)
        valid = self._valid[tid]
        key = self._tile_keys[tid]
        if not valid & bit:
            raise CoherenceError(f"{key}: no replica on {device} to evict")
        if self._mod[tid] & bit:
            raise CoherenceError(f"{key}: cannot evict MODIFIED replica on {device}")
        remaining = valid & ~bit
        if not remaining and not self._flights[tid]:
            raise CoherenceError(f"{key}: eviction would destroy the last replica")
        self._valid[tid] = remaining

    def discard(self, tid: int, device: int) -> None:
        """Drop the replica at ``device`` regardless of its state.

        Used when a dirty replica is evicted *while its write-back is in
        flight*: the data lives "in the wire" (an in-flight transfer records
        it), so the directory may forget the device copy early.  Raises if the
        discard would orphan the tile (no replica anywhere and nothing in
        flight).
        """
        bit = 1 << (device + 1)
        valid = self._valid[tid]
        key = self._tile_keys[tid]
        if not valid & bit:
            raise CoherenceError(f"{key}: no replica on {device} to discard")
        remaining = valid & ~bit
        if not remaining and not self._flights[tid]:
            raise CoherenceError(f"{key}: discard would orphan the tile")
        self._valid[tid] = remaining
        self._mod[tid] &= ~bit

    # -------------------------------------------------------------- seeding

    def seed_device(self, tid: int, device: int, exclusive: bool = True) -> None:
        """Place the initial valid replica on ``device`` (data-on-device).

        With ``exclusive`` the host replica is dropped, modelling matrices
        that live distributed in GPU memory as in §IV-C.
        """
        bit = 1 << (device + 1)
        if exclusive:
            self._gen[tid] += 1
            self._valid[tid] = bit
            self._mod[tid] = bit
            self._flights[tid].clear()
            self._fmask[tid] = 0
        else:
            self._valid[tid] |= bit
            self._mod[tid] &= ~bit

    def invalidate_device_replicas(self, tid: int) -> None:
        """Drop all device replicas, keeping (or restoring) host validity."""
        self._gen[tid] += 1
        self._valid[tid] = _HOST_BIT
        self._mod[tid] = 0
        self._flights[tid].clear()
        self._fmask[tid] = 0
