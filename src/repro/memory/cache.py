"""Per-device software caches and eviction policies.

Each simulated GPU owns a :class:`DeviceCache` accounting for the tiles
resident in its memory.  When an allocation does not fit, the cache chooses
victims among its unpinned resident tiles in the order of the
:class:`EvictionPolicy` it was built with:

* :class:`ReadOnlyFirstPolicy` — XKaapi's policy ("the eviction strategy
  prioritizes read-only data first", paper §II-C/§III-A): clean (SHARED)
  replicas are evicted before dirty (MODIFIED) ones, LRU within each class.
  Evicting a clean replica is free; a dirty one costs a write-back.
* :class:`LruPolicy` — plain least-recently-used, the ablation baseline.
* :class:`Blasx2LevelPolicy` — an approximation of BLASX's two-level cache
  (§II-C): tiles that other devices also hold (or held) are demoted last, so
  replicas useful as GPU-to-GPU sources survive longer.

A policy is a sort key over resident entries (``entry_rank``).  The first
allocation that needs a victim builds a victim index over the residents,
ordered by that key, and the cache keeps it incrementally from then on, so
choosing victims pops the index instead of sorting the resident set.  A
cache that never fills never builds one.  The cache itself never touches
coherence state: it *selects* victims; the runtime performs write-backs and
directory updates, keeping the two substrates independently testable.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Callable, Iterable

from repro.errors import CoherenceError, DeviceOutOfMemoryError
from repro.memory.tile import TileKey


@dataclasses.dataclass(slots=True)
class _Resident:
    key: TileKey
    nbytes: int
    last_use: float
    pins: int = 0
    dirty: bool = False
    shared_elsewhere: bool = False
    #: victim-index generation (see :meth:`DeviceCache.choose_victims`):
    #: identifies the single *live* heap stamp of this entry.  Once the index
    #: exists, bumped on (re-)insertion and on every eager re-stamp, so stamps
    #: carrying an older generation are dead and get discarded when they
    #: surface.
    gen: int = 0


class DeviceCache:
    """Byte-accounted set of tiles resident on one device, evicting in the
    order of ``policy``."""

    def __init__(self, device: int, capacity: int, policy: EvictionPolicy) -> None:
        if capacity <= 0:
            raise CoherenceError(f"device {device}: cache capacity must be positive")
        self.device = device
        self.capacity = capacity
        self.policy = policy
        self._resident: dict[TileKey, _Resident] = {}
        self._used = 0
        self.evictions = 0
        self.hits = 0
        self.misses = 0
        # Victim index (see choose_victims): a lazy-deletion min-heap of
        # (rank, gen, key) stamps in the policy's victim order, empty until
        # the first call that needs a victim builds it (_indexed).  _vrank is
        # the policy's entry_rank, cached as an attribute so the hot paths
        # skip the method lookup.
        self._vrank: Callable[[_Resident], tuple] = policy.entry_rank
        self._vheap: list[tuple[tuple, int, TileKey]] = []
        self._vgen = 0
        self._indexed = False

    # ------------------------------------------------------------- residency

    @property
    def used(self) -> int:
        return self._used

    @property
    def free(self) -> int:
        return self.capacity - self._used

    def __contains__(self, key: TileKey) -> bool:
        return key in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    def resident_keys(self) -> list[TileKey]:
        return list(self._resident)

    def insert(self, key: TileKey, nbytes: int, now: float = 0.0, pins: int = 0) -> None:
        """Account for a new resident tile (space must have been ensured).

        A tile staged by a transfer is inserted with ``pins=1``, held until it lands.
        """
        if key in self._resident:
            raise CoherenceError(f"{key} already resident on device {self.device}")
        if nbytes > self.free:
            raise DeviceOutOfMemoryError(
                f"device {self.device}: inserting {nbytes} B with only "
                f"{self.free} B free (capacity {self.capacity})"
            )
        self._resident[key] = entry = _Resident(
            key=key, nbytes=nbytes, last_use=now, pins=pins
        )
        self._used += nbytes
        self._stamp(entry)

    def remove(self, key: TileKey) -> int:
        """Drop a resident tile; returns its size."""
        entry = self._resident.get(key)
        if entry is None:
            raise CoherenceError(f"{key} not resident on device {self.device}")
        if entry.pins:
            raise CoherenceError(f"{key} is pinned on device {self.device}")
        del self._resident[key]
        self._used -= entry.nbytes
        return entry.nbytes

    # ------------------------------------------------------------ annotations

    def touch(self, key: TileKey, now: float) -> None:
        """Record a use (kernel read/write or transfer source) for recency."""
        entry = self._resident.get(key)
        if entry is None:
            raise CoherenceError(f"{key} not resident on device {self.device}")
        entry.last_use = max(entry.last_use, now)

    def pin(self, key: TileKey) -> None:
        """Protect a tile from eviction (inputs of a scheduled task)."""
        self._resident[key].pins += 1

    def pin_if_resident(self, key: TileKey) -> bool:
        """Fused ``key in cache`` + :meth:`pin`: one lookup, pins on a hit.

        The launch path pins every resident input; the separate
        membership probe per access was a measurable slice of large runs.
        """
        entry = self._resident.get(key)
        if entry is None:
            return False
        entry.pins += 1
        return True

    def unpin(self, key: TileKey) -> None:
        entry = self._resident[key]
        if entry.pins <= 0:
            raise CoherenceError(f"{key}: unbalanced unpin on device {self.device}")
        entry.pins -= 1

    def unpin_if_resident(self, key: TileKey) -> None:
        """:meth:`unpin` unless the tile was dropped meanwhile (transfer
        completions unpin their source, which may have been evicted)."""
        entry = self._resident.get(key)
        if entry is not None:
            if entry.pins <= 0:
                raise CoherenceError(
                    f"{key}: unbalanced unpin on device {self.device}"
                )
            entry.pins -= 1

    def unpin_many(self, keys) -> None:
        """:meth:`unpin` for a batch — one call per task completion instead of
        one per pinned input."""
        resident = self._resident
        for key in keys:
            entry = resident[key]
            if entry.pins <= 0:
                raise CoherenceError(
                    f"{key}: unbalanced unpin on device {self.device}"
                )
            entry.pins -= 1

    def pin_count(self, key: TileKey) -> int:
        """Number of outstanding pins on ``key`` (0 when not resident).

        The public form of the pin bookkeeping: the runtime consults this to
        decide whether a replica can be dropped without reaching into the
        cache's internal residency records.
        """
        entry = self._resident.get(key)
        return entry.pins if entry is not None else 0

    def mark_dirty(self, key: TileKey, dirty: bool = True) -> None:
        entry = self._resident[key]
        if entry.dirty != dirty:
            entry.dirty = dirty
            # A dirty-bit change can *lower* the entry's rank (write-back
            # completion: dirty -> clean moves it to the front of the victim
            # order for dirty-aware policies).  Lazy stamps only stay sound
            # for rank increases, so re-stamp eagerly.
            if self.policy.rank_uses_dirty:
                self._stamp(entry)

    def mark_shared_elsewhere(self, key: TileKey, flag: bool = True) -> None:
        entry = self._resident.get(key)
        if entry is not None and entry.shared_elsewhere != flag:
            entry.shared_elsewhere = flag
            # Clearing the shared hint lowers the entry's rank for the BLASX
            # two-level order; see mark_dirty for why decreases re-stamp.
            if self.policy.rank_uses_shared:
                self._stamp(entry)

    def is_dirty(self, key: TileKey) -> bool:
        return self._resident[key].dirty

    # --------------------------------------------------------------- lookups

    def record_access(self, key: TileKey) -> bool:
        """Hit/miss accounting; returns True on hit."""
        if key in self._resident:
            self.hits += 1
            return True
        self.misses += 1
        return False

    # ---------------------------------------------------------- victim index
    #
    # Victim candidates live in a lazy-deletion min-heap of ``(rank, gen,
    # key)`` stamps, where ``rank`` is the policy's sort key for the entry at
    # stamp time and ``gen`` identifies the single live stamp per entry
    # (bumped on insertion and on every eager re-stamp).  Selecting victims
    # therefore pops a few stamps instead of sorting the resident set, which
    # once dominated large-N runs with full caches.
    #
    # Rank *increases* (recency touches, clean -> dirty) are handled lazily:
    # a stale stamp is a lower bound, so the entry can only surface too
    # early, at which point the pop loop re-pushes it at its current rank.
    # Rank *decreases* (dirty -> clean on write-back completion, shared-hint
    # clearing) must re-stamp eagerly — mark_dirty / mark_shared_elsewhere do.
    # Ranks are unique (they end in the tile key), so heap pop order equals
    # ``sorted(candidates, key=rank)`` order bit-for-bit.
    #
    # The heap is built by the first call that needs a victim, through the
    # same branch that compacts it; until then _stamp is a no-op.  Like
    # XKaapi, which ranks victims only once a GPU's memory is full, a cache
    # that never fills (a retained TRSM's) holds no stamps at all.

    def _stamp(self, entry: _Resident) -> None:
        """(Re-)stamp ``entry`` in the victim heap at its current rank.

        Bumps the entry's generation so any older stamp still in the heap is
        dead and gets discarded when it surfaces.  A no-op until the index
        exists.
        """
        if not self._indexed:
            return
        self._vgen = gen = self._vgen + 1
        entry.gen = gen
        heapq.heappush(self._vheap, (self._vrank(entry), gen, entry.key))

    def choose_victims(
        self, needed: int, protect: Iterable[TileKey] = ()
    ) -> list[TileKey]:
        """Pick victims freeing at least ``needed`` bytes beyond current free.

        Unpinned tiles outside ``protect``, best victim first in the policy's
        order, popped from the victim index until the deficit is covered.
        Raises :class:`DeviceOutOfMemoryError` when even evicting everything
        unpinned cannot satisfy the request.

        Observably stateless: every live stamp popped (victims as well as
        pinned/protected entries that were set aside) is pushed back before
        returning, so a caller that does not actually evict sees the same
        answers on the next call.  Victims the caller *does* evict leave dead
        stamps behind, discarded on a later pop via the residency/generation
        check.
        """
        deficit = needed - self.free
        if deficit <= 0:
            return []
        heap = self._vheap
        resident = self._resident
        rank = self._vrank
        if not self._indexed or len(heap) > 2 * len(resident) + 64:
            # Build (first call that needs a victim) or compact: dead stamps
            # (evictions, eager re-stamps) accumulate until popped, so
            # re-stamping every resident in place keeps the heap O(resident).
            # Ranks are unique, so neither can change pop order.
            self._indexed = True
            heap.clear()
            gen = self._vgen
            for entry in resident.values():
                gen += 1
                entry.gen = gen
                heap.append((rank(entry), gen, entry.key))
            self._vgen = gen
            heapq.heapify(heap)
        push = heapq.heappush
        pop = heapq.heappop
        protected = frozenset(protect)
        victims: list[TileKey] = []
        restore: list[tuple[tuple, int, TileKey]] = []
        freed = 0
        while heap:
            item = pop(heap)
            entry = resident.get(item[2])
            if entry is None or entry.gen != item[1]:
                continue  # dead stamp: evicted / re-inserted / re-stamped
            cur = rank(entry)
            if cur != item[0]:
                # Stale lower-bound stamp (lazy recency/dirty increase):
                # re-file at the current rank and keep popping.
                push(heap, (cur, item[1], item[2]))
                continue
            restore.append(item)
            if entry.pins or item[2] in protected:
                continue
            victims.append(item[2])
            freed += entry.nbytes
            if freed >= deficit:
                break
        for item in restore:
            push(heap, item)
        if freed >= deficit:
            return victims
        raise DeviceOutOfMemoryError(
            f"device {self.device}: need {needed} B, free {self.free} B, "
            f"only {freed} B evictable"
        )

    def stats(self) -> dict[str, float]:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "evictions": self.evictions,
            "used_bytes": self._used,
            "resident_tiles": len(self._resident),
        }


class EvictionPolicy:
    """A victim order: the sort key a :class:`DeviceCache` evicts by."""

    name = "abstract"
    #: Per-entry sort key, best victim first.  Ranks end in the tile key, so
    #: no two residents tie.
    entry_rank: Callable[[_Resident], tuple]
    #: Which mutable entry fields participate in ``entry_rank`` — the cache
    #: re-stamps eagerly only on changes the rank can actually observe.  The
    #: runtime also maintains ``shared_elsewhere`` (a directory walk per write
    #: and per transfer landing) only for policies whose rank reads it.
    rank_uses_dirty = False
    rank_uses_shared = False


class LruPolicy(EvictionPolicy):
    """Evict least-recently-used first, regardless of dirtiness."""

    name = "lru"

    @staticmethod
    def entry_rank(e: _Resident) -> tuple:
        return (e.last_use, e.key.matrix_id, e.key.i, e.key.j)


class ReadOnlyFirstPolicy(EvictionPolicy):
    """XKaapi: clean replicas first (free to drop), then dirty, LRU inside."""

    name = "read-only-first"
    rank_uses_dirty = True

    @staticmethod
    def entry_rank(e: _Resident) -> tuple:
        return (e.dirty, e.last_use, e.key.matrix_id, e.key.i, e.key.j)


class Blasx2LevelPolicy(EvictionPolicy):
    """BLASX-like: keep tiles replicated on other devices longer.

    BLASX organizes its software cache in two levels so that replicas that can
    serve GPU-to-GPU transfers stay resident.  We model that preference by
    evicting, in order: clean tiles *not* shared elsewhere (useless as P2P
    sources once gone), then clean shared ones, then dirty ones — LRU within
    each class.
    """

    name = "blasx-2level"
    rank_uses_dirty = True
    rank_uses_shared = True

    @staticmethod
    def entry_rank(e: _Resident) -> tuple:
        return (
            e.dirty,
            e.shared_elsewhere,
            e.last_use,
            e.key.matrix_id,
            e.key.i,
            e.key.j,
        )


POLICIES: dict[str, Callable[[], EvictionPolicy]] = {
    LruPolicy.name: LruPolicy,
    ReadOnlyFirstPolicy.name: ReadOnlyFirstPolicy,
    Blasx2LevelPolicy.name: Blasx2LevelPolicy,
}
