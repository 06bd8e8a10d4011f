"""Test-side readers of the coherence directory.

The directory answers per tile id with :meth:`CoherenceDirectory.replicas`
and :meth:`CoherenceDirectory.flights`; these are the narrower views tests
assert through, derived from those two.
"""

from __future__ import annotations

from repro.memory.coherence import CoherenceDirectory, InFlight
from repro.topology.link import HOST


def is_valid(directory: CoherenceDirectory, tid: int, location: int) -> bool:
    """Whether ``location`` holds a valid replica of tile ``tid``."""
    return location in directory.replicas(tid)


def valid_devices(directory: CoherenceDirectory, tid: int) -> list[int]:
    """Device ids (host excluded) holding a valid replica, sorted."""
    return sorted(loc for loc in directory.replicas(tid) if loc != HOST)


def in_flight_to(directory: CoherenceDirectory, tid: int, dst: int) -> InFlight | None:
    """The live transfer of tile ``tid`` toward ``dst``, if any."""
    return next((f for f in directory.flights(tid) if f.dst == dst), None)
