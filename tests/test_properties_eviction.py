"""Property-based equivalence tests for the incremental victim index.

A :class:`DeviceCache` takes victims by popping a lazy-deletion heap of
``(rank, gen, key)`` stamps that it maintains incrementally (see
``DeviceCache.take_victims``).  The bit-identity goldens demand that the
index reproduces the reference order *exactly*: every unpinned, unprotected
resident sorted by the policy's ``entry_rank`` — same victims, same order,
under every interleaving of recency touches, pin churn, dirty transitions,
shared-hint flips, evictions and re-insertions.

These tests drive a cache through random operation sequences and compare
``take_victims`` against :func:`scan_victims`, the scan-and-sort model of
that order, at every probe, including:

* identical victim lists under random ``protect`` sets,
* exact removal — the resident set and the used bytes shrink by exactly
  the victims taken,
* identical :class:`DeviceOutOfMemoryError` messages when the request
  cannot be satisfied, with nothing removed (the index restores every
  popped live stamp),
* the full drain order (every evictable tile, best victim first), which is
  the strongest form of "pops candidates in the exact order the sort
  produces".

Hypothesis shrinks any divergence to a minimal op sequence.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DeviceOutOfMemoryError
from repro.memory.cache import (
    Blasx2LevelPolicy,
    DeviceCache,
    LruPolicy,
    ReadOnlyFirstPolicy,
)
from repro.memory.tile import TileKey

KEYS = [TileKey(matrix_id=m, i=i, j=j) for m in (3, 7) for i in range(3) for j in range(2)]
CAPACITY = 10_000

# Times are drawn from a small grid so equal ``last_use`` ties (broken by the
# tile key in every policy's rank) actually occur.
_times = st.sampled_from([0.0, 1.0, 1.0, 2.0, 2.5, 3.0])
_keys = st.integers(min_value=0, max_value=len(KEYS) - 1)
_sizes = st.integers(min_value=1, max_value=5)

_op = st.one_of(
    st.tuples(st.just("insert"), _keys, _sizes, _times),
    st.tuples(st.just("insert_pinned"), _keys, _sizes, _times),
    st.tuples(st.just("touch"), _keys, _times),
    st.tuples(st.just("pin"), _keys),
    st.tuples(st.just("unpin"), _keys),
    st.tuples(st.just("dirty"), _keys, st.booleans()),
    st.tuples(st.just("shared"), _keys, st.booleans()),
    st.tuples(st.just("remove"), _keys),
    st.tuples(
        st.just("evict_for"),
        st.integers(min_value=1, max_value=20),
        st.lists(_keys, max_size=4),
        st.booleans(),  # take from the cache itself, or from a deepcopy twin?
    ),
)

POLICIES = [LruPolicy, ReadOnlyFirstPolicy, Blasx2LevelPolicy]


def _candidates(cache, protect):
    """Unpinned residents outside ``protect``, in no particular order."""
    protected = set(protect)
    return [
        e for e in cache._resident.values()
        if not e.pins and e.key not in protected
    ]


def scan_victims(cache, needed, protect=()):
    """Reference model of ``cache.take_victims``: sort every candidate by
    the policy's rank and take victims until the deficit is covered."""
    deficit = needed - cache.free
    if deficit <= 0:
        return []
    victims = []
    freed = 0
    for entry in sorted(_candidates(cache, protect), key=cache.policy.entry_rank):
        victims.append(entry.key)
        freed += entry.nbytes
        if freed >= deficit:
            return victims
    raise DeviceOutOfMemoryError(
        f"device {cache.device}: need {needed} B, free {cache.free} B, "
        f"only {freed} B evictable"
    )


def _probe(cache, needed, protect):
    """take_victims against the model: the same victims, removed exactly,
    or the same error with nothing removed."""
    before = dict(cache._resident)
    used, evictions = cache._used, cache.evictions
    try:
        expect = scan_victims(cache, needed, protect)
    except DeviceOutOfMemoryError as err:
        with pytest.raises(DeviceOutOfMemoryError) as caught:
            cache.take_victims(needed, protect)
        assert str(caught.value) == str(err)
        assert cache._resident == before
        assert (cache._used, cache.evictions) == (used, evictions)
        return None
    taken = cache.take_victims(needed, protect)
    assert [e.key for e in taken] == expect
    assert all(e is before[e.key] for e in taken)
    assert cache._resident == {k: e for k, e in before.items() if k not in expect}
    assert cache._used == used - sum(e.nbytes for e in taken)
    assert cache.evictions == evictions + len(taken)
    return expect

def _apply(op, cache):
    kind = op[0]
    if kind == "insert" or kind == "insert_pinned":
        _, ki, nbytes, now = op
        key = KEYS[ki]
        if key not in cache:
            cache.insert(key, nbytes, now, pins=int(kind == "insert_pinned"))
    elif kind == "touch":
        _, ki, now = op
        key = KEYS[ki]
        if key in cache:
            cache.touch(key, now)
    elif kind == "pin":
        key = KEYS[op[1]]
        if key in cache:
            cache.pin(key)
    elif kind == "unpin":
        key = KEYS[op[1]]
        if cache.pin_count(key) > 0:
            cache.unpin(key)
    elif kind == "dirty":
        _, ki, flag = op
        key = KEYS[ki]
        if key in cache:
            cache.mark_dirty(key, flag)
    elif kind == "shared":
        _, ki, flag = op
        cache.mark_shared_elsewhere(KEYS[ki], flag)
    elif kind == "remove":
        key = KEYS[op[1]]
        if key in cache and cache.pin_count(key) == 0:
            cache.remove(key)
    else:  # evict_for
        _, extra, protect_idx, do_evict = op
        protect = tuple(KEYS[i] for i in protect_idx)
        _probe(cache if do_evict else copy.deepcopy(cache), cache.free + extra, protect)


@pytest.mark.parametrize("policy_cls", POLICIES, ids=lambda p: p.name)
@settings(max_examples=120, deadline=None)
@given(ops=st.lists(_op, max_size=60), protect_idx=st.lists(_keys, max_size=3))
def test_indexed_victims_match_scan_reference(policy_cls, ops, protect_idx):
    cache = DeviceCache(device=0, capacity=CAPACITY, policy=policy_cls())

    for op in ops:
        _apply(op, cache)

    # Full drain: request exactly everything evictable, so the index must
    # enumerate every candidate in the reference victim order.  Each probe
    # takes from its own twin, so both start from the same state.
    protect = tuple(KEYS[i] for i in protect_idx)
    candidates = _candidates(cache, protect)
    drainable = sum(e.nbytes for e in candidates)
    if drainable:
        victims = _probe(copy.deepcopy(cache), cache.free + drainable, protect)
        assert victims is not None and len(victims) == len(candidates)
    # And one past it: both sides must agree on the OOM diagnosis too.
    _probe(copy.deepcopy(cache), cache.free + drainable + 1, protect)


@pytest.mark.parametrize("policy_cls", POLICIES, ids=lambda p: p.name)
def test_index_survives_reinsertion_of_same_key(policy_cls):
    # Re-inserting an evicted key must supersede its dead heap stamps
    # (generation check), not resurrect the old rank.
    cache = DeviceCache(device=0, capacity=100, policy=policy_cls())
    k0, k1, k2 = KEYS[0], KEYS[1], KEYS[2]
    cache.insert(k0, 10, now=1.0)
    cache.insert(k1, 10, now=2.0)
    cache.insert(k2, 10, now=3.0)
    assert _probe(cache, cache.free + 1, ()) == [k0]
    cache.insert(k0, 10, now=5.0)  # a taken key comes back as the newest
    # A removal outside a take leaves the stamp behind, dead.
    cache.remove(k1)
    cache.insert(k1, 10, now=6.0)
    assert _probe(cache, cache.free + 1, ()) == [k2]
    assert _probe(cache, cache.free + 1, ()) == [k0]
