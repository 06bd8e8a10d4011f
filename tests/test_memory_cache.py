"""Tests for device caches and eviction policies."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import CoherenceError, DeviceOutOfMemoryError
from repro.memory.cache import (
    Blasx2LevelPolicy,
    DeviceCache,
    LruPolicy,
    POLICIES,
    ReadOnlyFirstPolicy,
)
from repro.memory.tile import TileKey


def key(i, j=0):
    return TileKey(0, i, j)


def make_cache(capacity=1000, policy=None):
    return DeviceCache(device=0, capacity=capacity, policy=policy or LruPolicy())


def take(c, needed, protect=()):
    """Keys of the victims ``c.take_victims`` removes, best victim first."""
    return [e.key for e in c.take_victims(needed, protect)]


# ----------------------------------------------------------------- cache


def test_insert_remove_accounting():
    c = make_cache(100)
    c.insert(key(0), 40)
    c.insert(key(1), 30)
    assert (c._used, c.free, len(c)) == (70, 30, 2)
    assert c.remove(key(0)) == 40
    assert c._used == 30


def test_double_insert_rejected():
    c = make_cache()
    c.insert(key(0), 10)
    with pytest.raises(CoherenceError):
        c.insert(key(0), 10)


def test_insert_beyond_capacity_rejected():
    c = make_cache(100)
    with pytest.raises(DeviceOutOfMemoryError):
        c.insert(key(0), 101)


def test_remove_missing_or_pinned_rejected():
    c = make_cache()
    with pytest.raises(CoherenceError):
        c.remove(key(9))
    c.insert(key(0), 10)
    c.pin(key(0))
    with pytest.raises(CoherenceError):
        c.remove(key(0))
    c.unpin(key(0))
    c.remove(key(0))


def test_pin_count_reflects_pins_and_tolerates_missing_keys():
    c = make_cache()
    assert c.pin_count(key(7)) == 0  # non-resident: zero, not an error
    c.insert(key(0), 10)
    assert c.pin_count(key(0)) == 0
    c.pin(key(0))
    c.pin(key(0))
    assert c.pin_count(key(0)) == 2
    c.unpin(key(0))
    assert c.pin_count(key(0)) == 1


def test_unbalanced_unpin_rejected():
    c = make_cache()
    c.insert(key(0), 10)
    with pytest.raises(CoherenceError):
        c.unpin(key(0))


def test_touch_updates_recency_monotonically():
    c = make_cache()
    c.insert(key(0), 10, now=1.0)
    c.touch(key(0), 5.0)
    c.touch(key(0), 3.0)  # never goes backwards
    assert c._resident[key(0)].last_use == 5.0


def test_hit_miss_stats():
    c = make_cache()
    c.insert(key(0), 10)
    assert c.record_access(key(0)) is True
    assert c.record_access(key(1)) is False
    stats = c.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["hit_rate"] == pytest.approx(0.5)


def test_invalid_capacity_rejected():
    with pytest.raises(CoherenceError):
        DeviceCache(0, capacity=0, policy=LruPolicy())


# --------------------------------------------------------------- policies


def setup_residents(c):
    c.insert(key(0), 30, now=1.0)  # oldest, clean
    c.insert(key(1), 30, now=2.0)  # dirty
    c.insert(key(2), 30, now=3.0)  # newest, clean, shared elsewhere
    c.mark_dirty(key(1))
    c.mark_shared_elsewhere(key(2))


def test_lru_evicts_oldest_first():
    c = make_cache(100, LruPolicy())
    setup_residents(c)  # free = 10
    assert take(c, needed=70) == [key(0), key(1)]  # deficit 60
    assert c.resident_keys() == [key(2)]
    assert (c._used, c.evictions) == (30, 2)


def test_read_only_first_prefers_clean():
    c = make_cache(100, ReadOnlyFirstPolicy())
    setup_residents(c)
    # deficit 90: clean tiles (0 then 2 by recency) go before the dirty 1;
    # the taken entries keep the dirty bit the caller's write-back needs
    taken = c.take_victims(needed=100)
    assert [(e.key, e.dirty) for e in taken] == [
        (key(0), False), (key(2), False), (key(1), True)
    ]
    assert len(c) == 0 and c._used == 0


def test_blasx_policy_keeps_shared_replicas_longer():
    c = make_cache(100, Blasx2LevelPolicy())
    setup_residents(c)
    # deficit 30: clean non-shared (key0) suffices; shared key2 survives
    assert take(c, needed=40) == [key(0)]
    # deficit 60: shared-elsewhere goes before dirty
    assert take(c, needed=100) == [key(2), key(1)]


def test_pinned_tiles_never_chosen():
    c = make_cache(100)
    setup_residents(c)
    c.pin(key(0))
    victims = take(c, needed=40)
    assert key(0) not in victims
    assert key(0) in c


def test_protected_tiles_never_chosen():
    c = make_cache(100)
    setup_residents(c)
    victims = take(c, needed=40, protect=(key(0),))
    assert key(0) not in victims
    assert key(0) in c


def test_no_eviction_needed_returns_empty():
    c = make_cache(100)
    c.insert(key(0), 10)
    assert take(c, needed=50) == []
    assert key(0) in c and c.evictions == 0


def test_oom_when_everything_pinned():
    c = make_cache(100)
    c.insert(key(0), 90)
    c.pin(key(0))
    with pytest.raises(DeviceOutOfMemoryError):
        c.take_victims(needed=50)


def test_oom_removes_nothing_and_restores_the_index():
    # Evictable bytes exist but fall short: the take pops them as victims,
    # then puts every stamp back and raises without removing anything.
    c = make_cache(100)
    setup_residents(c)
    c.pin(key(2))
    with pytest.raises(DeviceOutOfMemoryError, match="only 60 B evictable"):
        c.take_victims(needed=90)
    assert c.resident_keys() == [key(0), key(1), key(2)]
    assert (c._used, c.evictions) == (90, 0)
    assert sorted(item[2] for item in c._vheap) == [key(0), key(1), key(2)]
    c.unpin(key(2))
    assert take(c, needed=90) == [key(0), key(1), key(2)]


def test_policy_registry():
    assert set(POLICIES) == {"lru", "read-only-first", "blasx-2level"}
    for name, factory in POLICIES.items():
        assert factory().name == name


@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(1, 50), st.booleans()),
        min_size=1,
        max_size=25,
        unique_by=lambda t: t[0],
    ),
    st.sampled_from(sorted(POLICIES)),
)
def test_property_victims_free_enough_and_are_resident(entries, policy_name):
    c = make_cache(5000, POLICIES[policy_name]())
    for i, size, dirty in entries:
        c.insert(key(i), size, now=float(i))
        if dirty:
            c.mark_dirty(key(i))
    needed = c._used // 2 + c.free
    used = c._used
    taken = c.take_victims(needed=needed)
    keys = [e.key for e in taken]
    assert len(set(keys)) == len(keys)
    freed = sum(e.nbytes for e in taken)
    assert c._used == used - freed
    assert c.free >= needed
    assert c.evictions == len(taken)
    for k in keys:
        assert k not in c


# ------------------------------------------------------- incremental index


def test_indexed_writeback_restamps_clean_entry_first():
    # dirty -> clean is a rank *decrease* for dirty-aware policies: the entry
    # must move to the front of the victim order immediately (the write-back
    # completion path calls mark_dirty(key, False)).
    c = make_cache(100, ReadOnlyFirstPolicy())
    c.insert(key(0), 30, now=1.0)
    c.insert(key(1), 30, now=2.0)
    c.insert(key(2), 30, now=3.0)
    c.mark_dirty(key(0))
    # The first take builds the index: clean key1 goes before dirty key0.
    assert take(c, needed=c.free + 1) == [key(1)]
    c.mark_dirty(key(0), False)
    assert take(c, needed=c.free + 1) == [key(0)]


def test_indexed_shared_hint_clearing_restamps():
    c = make_cache(100, Blasx2LevelPolicy())
    c.insert(key(0), 30, now=1.0)
    c.insert(key(1), 30, now=2.0)
    c.insert(key(2), 30, now=3.0)
    c.mark_shared_elsewhere(key(0), True)
    assert take(c, needed=c.free + 1) == [key(1)]
    c.mark_shared_elsewhere(key(0), False)
    assert take(c, needed=c.free + 1) == [key(0)]


def test_index_compaction_preserves_order():
    # Dead stamps (eager re-stamps) accumulate until a make-room call
    # compacts the heap; compaction must not change the victim order.
    c = make_cache(10_000, ReadOnlyFirstPolicy())
    for i in range(8):
        c.insert(key(i), 10, now=float(i))
    c.insert(key(8), 10, now=-1.0)
    # The first call that needs a victim builds the index (and takes the
    # oldest tile); the churn below then stamps into it.
    assert take(c, needed=c.free + 1) == [key(8)]
    # Churn enough dirty flips to outgrow 2 * resident + 64 dead stamps.
    for _ in range(50):
        c.mark_dirty(key(0), True)
        c.mark_dirty(key(0), False)
    assert len(c._vheap) > 2 * len(c._resident) + 64
    assert take(c, needed=c.free + 75) == [key(i) for i in range(8)]
    assert len(c._vheap) <= 2 * len(c._resident) + 64


def test_takes_leave_one_stamp_per_resident():
    # A take consumes its victims' stamps and restores only the pinned or
    # protected ones it passed over, so without eager re-stamps in between
    # the index never holds a dead stamp.
    c = make_cache(100, ReadOnlyFirstPolicy())
    for i in range(8):
        c.insert(key(i), 10, now=float(i))
    c.pin(key(0))
    assert take(c, needed=c.free + 10) == [key(1)]
    assert len(c._vheap) == len(c)
    c.touch(key(2), 50.0)  # lazily stale: re-filed in place by the next take
    assert take(c, needed=c.free + 20, protect=(key(3),)) == [key(4), key(5)]
    assert len(c._vheap) == len(c)
    c.insert(key(9), 10, now=60.0)
    assert take(c, needed=c.free + 20) == [key(3), key(6)]
    assert len(c._vheap) == len(c)


@pytest.mark.parametrize(
    "policy_cls", [LruPolicy, ReadOnlyFirstPolicy, Blasx2LevelPolicy],
    ids=lambda p: p.name,
)
def test_index_built_at_first_eviction(policy_cls):
    # Until a call needs a victim the cache stamps nothing, whatever the
    # entries go through; that call ranks every unpinned resident in the
    # policy's order, exactly as a sort of the resident set would.
    c = make_cache(10_000, policy_cls())
    for i in range(12):
        c.insert(key(i), 10, now=float(i))
    for i in (3, 7, 1):
        c.touch(key(i), 20.0 + i)
    for i in (2, 5, 9):
        c.mark_dirty(key(i))
    c.mark_dirty(key(5), False)
    for i in (0, 4, 9):
        c.mark_shared_elsewhere(key(i), True)
    c.mark_shared_elsewhere(key(4), False)
    c.pin(key(6))
    assert c._vheap == []
    unpinned = [e for e in c._resident.values() if not e.pins]
    expect = [e.key for e in sorted(unpinned, key=c.policy.entry_rank)]
    assert take(c, needed=c.free + 10 * len(unpinned)) == expect
