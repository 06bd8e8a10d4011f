"""Coherence-protocol invariant checker and runtime sanitizer.

The directory implements a simplified MOSI protocol extended with in-flight
replicas (paper §III-C).  The invariants machine-checked here are the ones
the protocol's prose promises:

* **C001 — unique owner**: at most one location holds a ``MODIFIED`` replica.
  (Device ``SHARED`` copies *may* coexist with the owner: a device-to-device
  forward of a dirty replica leaves the source ``MODIFIED`` — owner
  semantics; the dirty bit keeps the write-back obligation on the source.)
* **C002 — owner excludes host**: while a device owns a ``MODIFIED``
  replica, the host copy is stale and must not be marked valid.  The host
  becomes valid again only through a write-back, which downgrades the owner.
* **C003 — generation coherence**: a write bumps the tile generation *and*
  clears outstanding flights, so no live flight may carry a generation other
  than the tile's current one (in-flight generations never exceed the tile
  generation, and stale flights never survive in the map).
* **C004 — flight source validity**: a flight's source must still be able to
  produce the bytes: a valid replica, an earlier flight landing at the source
  (optimistic chaining), or — for write-backs only — a replica discarded
  *after* the DMA was queued (the bytes live "in the wire").
* **C005 — flight destination**: a destination must not simultaneously hold
  a valid replica (``begin_transfer`` refuses it; a later transition
  re-validating the destination without clearing the flight is a bug).
* **C006 — known locations**: replica and flight endpoints must be the host
  or a platform device (when a platform is given).

:class:`CoherenceSanitizer` wires these checks into the runtime: with
``RuntimeOptions.verify_coherence`` (default off) the transfer manager and
executor call it after every state transition and it raises
:class:`~repro.errors.VerificationError` at the first violation — an
ASan-style mode for the coherence layer.
"""

from __future__ import annotations

import math

from repro.memory.coherence import CoherenceDirectory, ReplicaState
from repro.memory.tile import TileKey
from repro.topology.link import HOST
from repro.topology.platform import Platform
from repro.verify.base import Finding, raise_on_findings

_PASS = "coherence"


def _finding(code: str, key: TileKey, message: str) -> Finding:
    return Finding(_PASS, code, repr(key), message)


def check_tile(
    directory: CoherenceDirectory,
    key: TileKey,
    platform: Platform | None = None,
) -> list[Finding]:
    """Check every protocol invariant for one tile."""
    findings: list[Finding] = []
    tid = directory.lookup(key)
    states = directory.replicas(tid)
    flights = directory.flights(tid)
    generation = directory.generation(tid)
    known: set[int] | None = None
    if platform is not None:
        known = set(platform.device_ids()) | {HOST}

    owners = sorted(loc for loc, st in states.items() if st is ReplicaState.MODIFIED)
    if len(owners) > 1:
        findings.append(
            _finding("C001", key, f"multiple MODIFIED replicas at {owners}")
        )
    if owners and HOST in states and HOST not in owners:
        findings.append(
            _finding(
                "C002",
                key,
                f"host replica valid while device {owners[0]} holds MODIFIED",
            )
        )
    if known is not None:
        for loc in states:
            if loc not in known:
                findings.append(_finding("C006", key, f"replica at unknown location {loc}"))

    flight_dsts = {f.dst for f in flights}
    for flight in flights:
        if flight.generation > generation:
            findings.append(
                _finding(
                    "C003",
                    key,
                    f"flight to {flight.dst} carries generation "
                    f"{flight.generation} > tile generation {generation}",
                )
            )
        elif flight.generation != generation:
            findings.append(
                _finding(
                    "C003",
                    key,
                    f"stale flight to {flight.dst} (generation "
                    f"{flight.generation}, tile at {generation}) was never "
                    "invalidated",
                )
            )
        if flight.dst in states:
            findings.append(
                _finding(
                    "C005",
                    key,
                    f"flight to {flight.dst} but the destination already "
                    "holds a valid replica",
                )
            )
        source_ok = (
            flight.source in states
            or flight.source in flight_dsts  # chained on an inbound flight
            or flight.dst == HOST  # write-back of a discarded dirty replica
        )
        if not source_ok:
            findings.append(
                _finding(
                    "C004",
                    key,
                    f"flight to {flight.dst} sources from {flight.source}, "
                    "which holds no valid replica and expects none",
                )
            )
        if math.isnan(flight.completes_at) or math.isinf(flight.completes_at):
            findings.append(
                _finding(
                    "C007",
                    key,
                    f"flight to {flight.dst} has non-finite completion time "
                    f"{flight.completes_at}",
                )
            )
        if known is not None and (flight.dst not in known or flight.source not in known):
            findings.append(
                _finding(
                    "C006",
                    key,
                    f"flight {flight.source}->{flight.dst} touches an "
                    "unknown location",
                )
            )
    return findings


def check_directory(
    directory: CoherenceDirectory, platform: Platform | None = None
) -> list[Finding]:
    """Check every tile currently tracked by the directory."""
    findings: list[Finding] = []
    for key in directory.keys():
        findings += check_tile(directory, key, platform)
    return findings


class CoherenceSanitizer:
    """Runtime hook validating the directory at every state transition.

    Cheap by construction: each hook call re-checks only the tile that was
    touched (O(replicas + flights) per transition).  The CLI sweeps a
    drained run with :func:`check_directory`, which returns the findings.
    """

    def __init__(
        self, directory: CoherenceDirectory, platform: Platform | None = None
    ) -> None:
        self.directory = directory
        self.platform = platform
        self.checks = 0

    def check_tile(self, key: TileKey) -> None:
        self.checks += 1
        raise_on_findings(
            check_tile(self.directory, key, self.platform),
            "coherence sanitizer",
        )
