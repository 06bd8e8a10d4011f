"""Access lists for hand-built test tasks."""

from __future__ import annotations

from typing import Sequence

from repro.memory.tile import Tile
from repro.runtime.access import Access, AccessMode


def make_access_list(
    reads: Sequence[Tile] = (),
    writes: Sequence[Tile] = (),
    readwrites: Sequence[Tile] = (),
) -> list[Access]:
    """Convenience builder for access lists (reads, then writes, then RW)."""
    out = [Access(t, AccessMode.READ) for t in reads]
    out += [Access(t, AccessMode.WRITE) for t in writes]
    out += [Access(t, AccessMode.READWRITE) for t in readwrites]
    return out
