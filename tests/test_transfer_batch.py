"""The batched transfer path: ``ensure_resident_batch``, ``_make_room``
eviction corner cases, and ``estimate_transfers`` / ``_select_source``
agreement.

These pin the bit-identity contract of the array-backed transfer overhaul:
the batch entry point must be op-for-op equivalent to the single-access
residency path it replaced (kept below as :func:`reference_ensure_resident`,
the model of a property test), the one-loop eviction must be op-for-op
equivalent to the two-pass one it replaced (kept as
:func:`reference_make_room`), and the read-only estimate must never price
a different source than the stateful pick.
"""

import functools

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import Runtime, RuntimeOptions
from repro.errors import DeviceOutOfMemoryError
from repro.memory.matrix import Matrix
from repro.runtime.policies import SourcePolicy
from repro.topology.device import GpuSpec
from repro.topology.dgx1 import make_dgx1
from repro.topology.link import HOST, Link, LinkKind
from repro.topology.platform import Platform
from tests.directory_views import is_valid
from tests.reference_dispatch import advance
from tests.test_properties_eviction import scan_victims

#: bit of the host inside the directory's validity / in-flight masks.
_HOST_BIT = 1 << (HOST + 1)


def setup(policy=SourcePolicy.TOPOLOGY_OPTIMISTIC, num_gpus=8):
    rt = Runtime(make_dgx1(num_gpus), RuntimeOptions(source_policy=policy))
    mat = Matrix.meta(4096, 4096, name="A")
    part = rt.partition(mat, 1024)
    return rt, part


def tiny_platform(memory_tiles: int, nb: int = 32, wordsize: int = 8):
    """Two GPUs whose memory holds only ``memory_tiles`` tiles each."""
    capacity = int(memory_tiles * nb * nb * wordsize / 0.92) + 1
    gpu = GpuSpec(name="tiny", memory_bytes=capacity)
    return Platform(
        name="tiny",
        gpus=[gpu, gpu],
        links=[Link(0, 1, LinkKind.NVLINK_DOUBLE), Link(1, 0, LinkKind.NVLINK_DOUBLE)],
        pcie_switch_groups=[(0, 1)],
    )


def tiny_setup(memory_tiles: int, nb: int = 32):
    rt = Runtime(tiny_platform(memory_tiles, nb=nb))
    mat = Matrix.meta(4 * nb, 4 * nb, name="A")
    part = rt.partition(mat, nb)
    return rt, part


# ------------------------------------------ single-access reference model


def reference_ensure_resident(transfer, tile, dst, protect=()):
    """The single-access residency path ``TransferManager.ensure_resident``
    ran before it delegated to ``ensure_resident_batch``: a hit counts and
    bumps recency without pinning, a tile in flight to ``dst`` chains on its
    landing, and a miss issues the transfer."""
    now = transfer.sim.now
    key = tile.key
    cache = transfer.caches[dst]
    tid = transfer.directory.lookup(key)
    dstbit = 1 << (dst + 1)
    if transfer._dir_valid[tid] & dstbit:
        entry = cache._resident.get(key)
        if entry is None:
            cache.misses += 1
        else:
            cache.hits += 1
            if now > entry.last_use:
                entry.last_use = now
        return now
    if transfer._dir_fmask[tid] & dstbit:
        cache.record_access(key)
        return max(now, transfer._dir_flights[tid][dst].completes_at)
    return transfer._issue_transfer(tile, key, tid, dst, cache, now, protect)


def _observable(rt):
    """Everything a residency request can change: the clock and pending
    events, every cache entry and counter, transfer stats and the directory."""
    d = rt.directory
    return (
        rt.sim.now,
        len(rt.sim._heap),
        rt.transfer.stats(),
        {
            dev: (
                cache.hits, cache.misses, cache.evictions, cache._used,
                [
                    (key, e.nbytes, e.last_use, e.pins, e.dirty, e.shared_elsewhere)
                    for key, e in cache._resident.items()
                ],
            )
            for dev, cache in rt.caches.items()
        },
        [
            (key, d.replicas(tid), d.flights(tid), d.generation(tid))
            for tid, key in enumerate(d.keys())
        ],
    )


_STEPS = st.lists(
    st.one_of(
        # (kind, tile index, device, protect the next tile?)
        st.tuples(
            st.just("fetch"), st.integers(0, 5), st.integers(0, 1), st.booleans()
        ),
        # a kernel on the device rewrites a tile valid there and moving
        # nowhere (dataflow orders a write after every transfer it races):
        # this makes the dirty victims
        st.tuples(st.just("write"), st.integers(0, 5), st.integers(0, 1)),
        # let part of the in-flight transfers land
        st.tuples(st.just("advance"), st.sampled_from([0.0, 5e-6, 2e-5, 1e-4])),
    ),
    min_size=10,
    max_size=40,
)


@given(steps=_STEPS)
@settings(max_examples=60, deadline=None)
def test_property_ensure_resident_matches_single_access_model(steps):
    """Random single-tile residency sequences on twin runtimes, one served
    by the reference model and one by ``ensure_resident``: hits, chains on
    in-flight replicas and misses that evict (dirty) victims from caches of
    two tiles leave identical state after every step."""
    mat = Matrix.meta(4 * 32, 4 * 32, name="A")
    twins = []
    for _ in range(2):
        rt = Runtime(tiny_platform(memory_tiles=2))
        twins.append((rt, rt.partition(mat, 32)))
    (rt_m, part_m), (rt_r, part_r) = twins
    for step in steps:
        kind, *args = step
        if kind == "fetch":
            idx, dst, protect_next = args
            coord = divmod(idx, 4)
            protect = (part_m[divmod((idx + 1) % 6, 4)].key,) if protect_next else ()
            try:
                expect = reference_ensure_resident(
                    rt_m.transfer, part_m[coord], dst, protect
                )
            except DeviceOutOfMemoryError:
                with pytest.raises(DeviceOutOfMemoryError):
                    rt_r.transfer.ensure_resident(part_r[coord], dst, protect)
                return
            assert rt_r.transfer.ensure_resident(part_r[coord], dst, protect) == expect
        elif kind == "write":
            idx, dev = args
            coord = divmod(idx, 4)
            writable = []
            for rt, part in twins:
                d = rt.directory
                tid = d.lookup(part[coord].key)
                writable.append(is_valid(d, tid, dev) and not d.flights(tid))
            assert writable[0] == writable[1]
            if writable[0]:
                for rt, part in twins:
                    rt.transfer.register_write(part[coord], dev, rt.sim.now)
        else:
            for rt, _ in twins:
                advance(rt.sim, rt.sim.now + args[0])
        assert _observable(rt_r) == _observable(rt_m)
    for rt, _ in twins:
        rt.sim.run()
    assert _observable(rt_r) == _observable(rt_m)


# ---------------------------------------------- two-pass eviction model


def reference_make_room(transfer, device, nbytes, now, protect=()):
    """The two-pass ``TransferManager._make_room`` that ran before eviction
    took its victims in one loop: victims picked by the scan-and-sort model,
    every fresh write-back reserved first (one ``Channel.reserve_batch`` per
    D2H channel, in victim order), then each victim removed with
    ``cache.remove`` and its state transitions applied in victim order."""
    cache = transfer.caches[device]
    if nbytes <= cache.free:
        return now
    victims = scan_victims(cache, nbytes, protect)
    datastore = transfer.datastore
    directory = transfer.directory
    # Plan rows: [key, tile, dirty, tid, kind, source, start, end] with kind
    # 0 = clean, 1 = host already valid, 2 = write-back already in flight,
    # 3 = reserve a write-back.
    plans = []
    groups = {}  # D2H channel -> plans in victim order
    for vkey in victims:
        vtile = datastore.tile(vkey)
        tid = directory.lookup(vkey)
        if not cache._resident[vkey].dirty:
            plans.append([vkey, vtile, False, tid, 0, HOST, now, now])
        elif transfer._dir_valid[tid] & _HOST_BIT:
            plans.append([vkey, vtile, True, tid, 1, HOST, now, now])
        elif transfer._dir_fmask[tid] & _HOST_BIT:
            plans.append([vkey, vtile, True, tid, 2, HOST, now, now])
        else:
            source = transfer._writeback_source(vkey, tid)
            plan = [vkey, vtile, True, tid, 3, source, now, now]
            groups.setdefault(transfer.fabric._d2h[source], []).append(plan)
            plans.append(plan)
    for chan, chan_plans in groups.items():
        slots = chan.reserve_batch([(p[1].nbytes, now) for p in chan_plans])
        for p, (start, end) in zip(chan_plans, slots):
            p[6], p[7] = start, end
    ready = now
    for vkey, vtile, dirty, tid, kind, source, start, end in plans:
        cache.remove(vkey)
        if dirty:
            if kind == 1:
                end = now
            elif kind == 2:
                end = max(now, transfer._dir_flights[tid][HOST].completes_at)
            else:
                transfer._issue_writeback(vtile, vkey, tid, source, start, end, now)
            if end > ready:
                ready = end
            directory.discard(tid, device)
            if transfer._track_shared:
                transfer._refresh_shared_flags(vkey, tid)
            transfer.sim.post(end, datastore.drop_device_tile, vkey, device)
        else:
            directory.evict(tid, device)
            datastore.drop_device_tile(vkey, device)
            if transfer._track_shared:
                transfer._refresh_shared_flags(vkey, tid)
        cache.evictions += 1
        if transfer.sanitizer is not None:
            transfer.sanitizer.check_tile(vkey)
    return ready


def _channels(rt):
    """Every fabric channel's FIFO horizon and traffic counters, by name."""
    f = rt.fabric
    return {
        chan.name: (chan.busy_until, chan.bytes_moved, chan.transfer_count)
        for table in (
            f._h2d, f._d2h, f._p2p, f._local, f._nvlink_egress, f._nvlink_ingress
        )
        for chan in table.values()
    }


def _pending(rt):
    """The pending events in firing order, tiles named by their keys."""
    return [
        (
            time, seq, callback.__name__,
            tuple(getattr(a, "key", a) for a in args),
        )
        for time, seq, callback, args in sorted(rt.sim._heap, key=lambda e: e[:2])
    ]


_FETCH = st.tuples(
    # (kind, big tile?, tile index, device, protect the next tile?)
    st.just("fetch"), st.booleans(), st.integers(0, 7), st.integers(0, 1), st.booleans(),
)
_EVICTION_STEPS = st.lists(
    st.one_of(
        _FETCH,  # listed twice: fetches are what fill the caches
        _FETCH,
        # every transfer lands, then a kernel rewrites the k-th tile resident
        # on the device: this makes the dirty victims
        st.tuples(st.just("write"), st.integers(0, 7), st.integers(0, 1)),
        # a flush starts a write-back the eviction may then find in flight
        st.tuples(st.just("flush"), st.booleans(), st.integers(0, 7)),
        # the k-th resident tile's dirty bit set with no write: a dirty victim
        # whose host copy is valid or whose write-back is already in flight
        st.tuples(st.just("dirty"), st.integers(0, 7), st.integers(0, 1)),
        st.tuples(st.just("advance"), st.sampled_from([0.0, 5e-6, 2e-5, 1e-4])),
    ),
    min_size=20,
    max_size=50,
)


@given(
    steps=_EVICTION_STEPS,
    policy=st.sampled_from(["read-only-first", "lru", "blasx-2level"]),
)
# Six small tiles land on GPU 0 and are rewritten there, one is being
# flushed; the big fetch then takes four dirty victims, whose write-backs
# queue on the shared D2H channel.
@example(
    steps=[("fetch", False, i, 0, False) for i in range(6)]
    + [("write", k, 0) for k in range(6)]
    + [("flush", False, 4), ("fetch", True, 0, 0, False), ("advance", 1e-4)],
    policy="read-only-first",
)
# Six small tiles replicated on both GPUs: the big fetch takes four of them
# off GPU 0, and GPU 1's copies stop being shared elsewhere.
@example(
    steps=[("fetch", False, i, dev, False) for dev in (1, 0) for i in range(6)]
    + [("advance", 1e-4), ("fetch", True, 0, 0, False), ("advance", 1e-4)],
    policy="blasx-2level",
)
# The same, with GPU 0's copies dirty while the host copy is valid: four
# victims that need no write-back.
@example(
    steps=[("fetch", False, i, dev, False) for dev in (1, 0) for i in range(6)]
    + [("advance", 1e-4)] + [("dirty", k, 0) for k in range(6)]
    + [("fetch", True, 0, 0, False), ("advance", 1e-4)],
    policy="blasx-2level",
)
# A tile rewritten on GPU 1 and copied to GPU 0 is being flushed from GPU 1
# when the big fetch takes GPU 0's (dirty) copy: the victim's ready time is
# the flight's landing.
@example(
    steps=[("fetch", False, 0, 1, False), ("write", 0, 1)]
    + [("fetch", False, i, 0, False) for i in range(6)]
    + [("advance", 1e-4), ("flush", False, 0), ("dirty", 0, 0)]
    + [("fetch", True, 0, 0, False), ("advance", 1e-4)],
    policy="lru",
)
@settings(max_examples=60, deadline=None)
def test_property_make_room_matches_two_pass_model(steps, policy):
    """Twin runtimes whose caches hold six 32x32 tiles, one making room with
    the two-pass model: fetching a 64x64 tile takes up to four victims in
    one allocation, some of them dirty, whose write-backs share the switch's
    D2H channel.  Every step leaves identical runtime state, channel
    horizons and traffic, and pending events."""
    small = Matrix.meta(4 * 32, 4 * 32, name="A")
    big = Matrix.meta(4 * 64, 2 * 64, name="B")
    twins = []
    for _ in range(2):
        rt = Runtime(
            tiny_platform(memory_tiles=6),
            RuntimeOptions(eviction=policy, verify_coherence=True),
        )
        twins.append((rt, (rt.partition(small, 32), rt.partition(big, 64))))
    (rt_m, _), (rt_r, _) = twins
    rt_m.transfer._make_room = functools.partial(reference_make_room, rt_m.transfer)

    def tile(parts, is_big, idx):
        return parts[is_big][divmod(idx, 2 if is_big else 4)]

    def state(rt):
        return _observable(rt), _channels(rt), _pending(rt)

    for step in steps:
        kind, *args = step
        if kind == "fetch":
            is_big, idx, dst, protect_next = args
            outcomes = []
            for rt, parts in twins:
                protect = (
                    (tile(parts, is_big, (idx + 1) % 8).key,) if protect_next else ()
                )
                try:
                    outcomes.append(
                        rt.transfer.ensure_resident(tile(parts, is_big, idx), dst, protect)
                    )
                except DeviceOutOfMemoryError as err:
                    outcomes.append(str(err))
            # An allocation nothing unpinned can satisfy fails alike on both
            # and removes nothing; the run goes on.
            assert outcomes[0] == outcomes[1]
        elif kind == "write":
            k, dev = args
            for rt, _ in twins:
                rt.sim.run()
            assert state(rt_r) == state(rt_m)
            resident = rt_m.caches[dev].resident_keys()
            if resident:
                key = resident[k % len(resident)]
                for rt, _ in twins:
                    rt.transfer.register_write(rt.datastore.tile(key), dev, rt.sim.now)
        elif kind == "dirty":
            k, dev = args
            resident = rt_m.caches[dev].resident_keys()
            if resident:
                key = resident[k % len(resident)]
                for rt, _ in twins:
                    rt.caches[dev].mark_dirty(key)
        elif kind == "flush":
            is_big, idx = args
            ready = [
                rt.transfer.ensure_host_valid(tile(parts, is_big, idx))
                for rt, parts in twins
            ]
            assert ready[0] == ready[1]
        else:
            for rt, _ in twins:
                advance(rt.sim, rt.sim.now + args[0])
        assert state(rt_r) == state(rt_m)
    for rt, _ in twins:
        rt.sim.run()
    assert state(rt_r) == state(rt_m)


# ---------------------------------------------------- ensure_resident_batch


def test_batch_misses_match_sequential_ensure_resident():
    """All-miss batch: same ready times, transfer stats and directory state
    as per-access ``ensure_resident`` calls on an identical runtime."""
    coords = [(0, 0), (0, 1), (1, 0)]
    rt_a, part_a = setup()
    rt_b, part_b = setup()

    accesses = [part_a[c].read_access for c in coords]
    ready, cost, pinned = rt_a.transfer.ensure_resident_batch(
        accesses, dst=0, now=0.0, inputs_ready=0.0
    )

    readies = [rt_b.transfer.ensure_resident(part_b[c], dst=0) for c in coords]
    expect_ready = 0.0
    expect_cost = 0.0
    for r in readies:
        if r > 0.0:
            expect_cost += r - 0.0
            if r > expect_ready:
                expect_ready = r
    assert ready == expect_ready
    assert cost == expect_cost
    assert rt_a.transfer.stats() == rt_b.transfer.stats()
    assert pinned == [part_a[c].key for c in coords]
    # The batch adds the launch pin atop the landing pin.
    for c in coords:
        assert rt_a.caches[0].pin_count(part_a[c].key) == 2

    rt_a.sim.run()
    rt_b.sim.run()
    for c in coords:
        assert is_valid(rt_a.directory, rt_a.directory.lookup(part_a[c].key), 0)
        assert is_valid(rt_b.directory, rt_b.directory.lookup(part_b[c].key), 0)


def test_batch_hit_path_pins_and_counts():
    rt, part = setup()
    tile = part[(0, 0)]
    rt.transfer.ensure_resident(tile, dst=0)
    rt.sim.run()
    hits_before = rt.caches[0].hits
    ready, cost, pinned = rt.transfer.ensure_resident_batch(
        [tile.read_access], dst=0, now=rt.sim.now, inputs_ready=rt.sim.now
    )
    assert ready == rt.sim.now and cost == 0.0
    assert pinned == [tile.key]
    assert rt.caches[0].hits == hits_before + 1
    assert rt.caches[0].pin_count(tile.key) == 1
    assert rt.transfer.stats()["h2d"] == 1  # no second transfer


def test_batch_chains_on_inflight_replica():
    """A batch request while the same tile flies to ``dst`` must dedup onto
    the flight, exactly like sequential ``ensure_resident``."""
    rt, part = setup()
    tile = part[(0, 0)]
    first = rt.transfer.ensure_resident(tile, dst=0)
    ready, cost, _ = rt.transfer.ensure_resident_batch(
        [tile.read_access], dst=0, now=0.0, inputs_ready=0.0
    )
    assert ready == first
    assert rt.transfer.stats()["h2d"] == 1


def test_batch_write_only_access_allocates_without_transfer():
    rt, part = setup()
    tile = part[(0, 0)]
    ready, cost, pinned = rt.transfer.ensure_resident_batch(
        [tile.write_access], dst=0, now=0.0, inputs_ready=0.0
    )
    assert cost == 0.0
    assert pinned == []  # outputs are not launch-pinned
    stats = rt.transfer.stats()
    assert stats["h2d"] == 0 and stats["p2p"] == 0


# --------------------------------------------------------------- _make_room


def test_make_room_skips_pinned_tile():
    rt, part = tiny_setup(memory_tiles=2)
    t0, t1, t2 = part[(0, 0)], part[(0, 1)], part[(0, 2)]
    rt.transfer.ensure_resident(t0, dst=0)
    rt.sim.run()
    rt.caches[0].pin(t0.key)
    rt.transfer.ensure_resident(t1, dst=0)
    rt.sim.run()
    # Cache full (two tiles), t0 pinned: the third fetch must evict t1.
    rt.transfer.ensure_resident(t2, dst=0)
    rt.sim.run()
    assert t0.key in rt.caches[0]
    assert t1.key not in rt.caches[0]
    assert is_valid(rt.directory, rt.directory.lookup(t2.key), 0)


def test_make_room_raises_when_everything_pinned():
    rt, part = tiny_setup(memory_tiles=2)
    t0, t1, t2 = part[(0, 0)], part[(0, 1)], part[(0, 2)]
    for t in (t0, t1):
        rt.transfer.ensure_resident(t, dst=0)
        rt.sim.run()
        rt.caches[0].pin(t.key)
    with pytest.raises(DeviceOutOfMemoryError):
        rt.transfer.ensure_resident(t2, dst=0)


def test_make_room_respects_protect_set():
    rt, part = tiny_setup(memory_tiles=2)
    t0, t1, t2 = part[(0, 0)], part[(0, 1)], part[(0, 2)]
    rt.transfer.ensure_resident(t0, dst=0)
    rt.transfer.ensure_resident(t1, dst=0)
    rt.sim.run()
    rt.transfer.ensure_resident(t2, dst=0, protect=(t0.key,))
    rt.sim.run()
    assert t0.key in rt.caches[0]
    assert t1.key not in rt.caches[0]


def test_make_room_single_dirty_victim_written_back():
    """A dirty victim with no valid host copy is written back, not dropped."""
    rt, part = tiny_setup(memory_tiles=2)
    t0, t1, t2 = part[(0, 0)], part[(0, 1)], part[(0, 2)]
    for t in (t0, t1):
        rt.transfer.ensure_resident(t, dst=0)
        rt.sim.run()
        rt.transfer.register_write(t, device=0, when=rt.sim.now)
    assert rt.caches[0]._resident[t0.key].dirty and rt.caches[0]._resident[t1.key].dirty
    assert not rt.directory.host_valid(rt.directory.lookup(t0.key))

    rt.transfer.ensure_resident(t2, dst=0)
    rt.sim.run()

    stats = rt.transfer.stats()
    assert stats["d2h"] == 1  # one tile's worth of room: exactly one victim
    evicted = [t for t in (t0, t1) if t.key not in rt.caches[0]]
    assert len(evicted) == 1
    d = rt.directory
    assert d.host_valid(d.lookup(evicted[0].key))
    assert is_valid(d, d.lookup(t2.key), 0)


def test_make_room_all_resident_dirty_batches_writebacks():
    """Every victim dirty with no valid host copy: one allocation must write
    each one back, reserved in victim order on the D2H channel, before the
    fetch lands."""
    rt, part = tiny_setup(memory_tiles=4)
    smalls = [part[(0, j)] for j in range(4)]
    for t in smalls:
        rt.transfer.ensure_resident(t, dst=0)
        rt.sim.run()
        rt.transfer.register_write(t, device=0, when=rt.sim.now)
    assert all(rt.caches[0]._resident[t.key].dirty for t in smalls)

    # One 64x64 tile = four 32x32 tiles: fetching it must evict (and write
    # back) every resident dirty tile in one make-room call.
    big = rt.partition(Matrix.meta(64, 64, name="B"), 64)[(0, 0)]
    rt.transfer.ensure_resident(big, dst=0)
    rt.sim.run()

    stats = rt.transfer.stats()
    assert stats["d2h"] == 4  # every dirty victim written back
    d = rt.directory
    for t in smalls:
        assert t.key not in rt.caches[0]
        assert d.host_valid(d.lookup(t.key))
    assert is_valid(d, d.lookup(big.key), 0)


def test_make_room_evicts_flushed_tile_without_second_writeback():
    """A tile flushed before the eviction is evicted without a second D2H:
    the flush's landing marked its cache entry clean, so it leaves as a clean
    victim."""
    rt, part = tiny_setup(memory_tiles=2)
    t0, t1, t2 = part[(0, 0)], part[(0, 1)], part[(0, 2)]
    rt.transfer.ensure_resident(t0, dst=0)
    rt.sim.run()
    rt.transfer.register_write(t0, device=0, when=rt.sim.now)
    rt.transfer.ensure_host_valid(t0)
    rt.sim.run()
    rt.transfer.ensure_resident(t1, dst=0)
    rt.sim.run()
    d2h_before = rt.transfer.stats()["d2h"]
    rt.transfer.ensure_resident(t2, dst=0)
    rt.sim.run()
    assert rt.transfer.stats()["d2h"] == d2h_before


# ---------------------------------- estimate_transfers vs _select_source


_POLICIES = [
    SourcePolicy.HOST_ONLY,
    SourcePolicy.ANY_VALID,
    SourcePolicy.TOPOLOGY,
    SourcePolicy.TOPOLOGY_OPTIMISTIC,
]


@given(
    replicas=st.sets(st.integers(min_value=0, max_value=7), max_size=8),
    dst=st.integers(min_value=0, max_value=7),
    ti=st.integers(min_value=0, max_value=3),
    tj=st.integers(min_value=0, max_value=3),
    policy=st.sampled_from(_POLICIES),
)
@settings(max_examples=50, deadline=None)
def test_property_preview_agrees_with_select(replicas, dst, ti, tj, policy):
    """Over random directory states (and no in-flight transfers) the
    read-only estimate prices a transfer to ``dst`` over the link from the
    source the stateful ``_select_source`` picks."""
    rt = Runtime(make_dgx1(8), RuntimeOptions(source_policy=policy))
    mat = Matrix.meta(4096, 4096, name="A")
    part = rt.partition(mat, 1024)
    tile = part[(ti, tj)]
    tid = rt.directory.lookup(tile.key)
    for d in sorted(replicas):
        rt.directory.seed_device(tid, d, exclusive=False)
        rt.caches[d].insert(tile.key, tile.nbytes)

    row = rt.transfer.estimate_transfers([tile.read_access])
    if dst in replicas:
        # Already valid at the destination: a free local hit; the launch
        # path never consults _select_source in this state.
        assert row[dst] == 0.0
        return
    src_sel, _ = rt.transfer._select_source(tile.key, dst, rt.sim.now, tid)
    if not replicas or not policy.uses_device_sources:
        assert src_sel == HOST
        bw = rt.platform.host_bandwidth
    else:
        assert src_sel in replicas
        bw = rt.fabric.link_bandwidth[(src_sel, dst)]
    assert row[dst] == tile.nbytes / bw
