"""Data management substrate.

Implements the paper's §III-A data model: LAPACK memory views
``(m, n, ld, wordsize)``, matrices partitioned into sub-matrix tiles, the
2D-block-cyclic distribution used by the data-on-device experiments, the
per-device software cache with MOSI-ish coherence states extended with the
*under transfer* metadata of the optimistic heuristic, and eviction policies
(XKaapi's read-only-first, plain LRU, BLASX's two-level).
"""

from repro.memory.coherence import CoherenceDirectory, InFlight, ReplicaState
from repro.memory.cache import (
    Blasx2LevelPolicy,
    DeviceCache,
    EvictionPolicy,
    LruPolicy,
    ReadOnlyFirstPolicy,
)
from repro.memory.layout import (
    BlockCyclicDistribution,
    TilePartition,
    layout_conversion_time,
)
from repro.memory.matrix import Matrix
from repro.memory.tile import Tile, TileKey
from repro.memory.view import MemoryView

__all__ = [
    "Blasx2LevelPolicy",
    "BlockCyclicDistribution",
    "CoherenceDirectory",
    "DeviceCache",
    "EvictionPolicy",
    "InFlight",
    "LruPolicy",
    "Matrix",
    "MemoryView",
    "ReadOnlyFirstPolicy",
    "ReplicaState",
    "Tile",
    "TileKey",
    "TilePartition",
    "layout_conversion_time",
]
