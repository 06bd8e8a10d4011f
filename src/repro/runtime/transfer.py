"""The transfer manager — where the paper's two heuristics live.

``TransferManager.ensure_resident(tile, dst)`` makes a tile valid on a device
and returns the virtual time at which it is usable.  Source selection follows
the active :class:`~repro.runtime.policies.SourcePolicy`:

1. already valid on ``dst`` → ready immediately;
2. already **in flight** to ``dst`` → ready when that transfer completes (this
   alone deduplicates host→device copies, §III-C: "the heuristic avoids
   duplicate tile transfers from main memory");
3. some device holds a valid replica → with the **topology-aware** heuristic
   the source is the valid device with the best link-performance rank toward
   ``dst`` (§III-B); without it, an arbitrary (deterministically pseudo-random)
   valid device;
4. no device replica valid, but one is in flight somewhere → with the
   **optimistic** heuristic, wait for the flight to land and forward
   device-to-device (§III-C); otherwise fall back to the host;
5. otherwise copy from the host (after restoring host validity if the only
   valid replica is dirty on a device).

The manager also owns device-memory admission: before a transfer lands, space
is ensured in the destination's :class:`~repro.memory.cache.DeviceCache`,
evicting the victims it takes in its policy's order and writing dirty ones
back.

Hot-path layout
---------------

The per-tile state the manager consults per access is array-backed on the
directory's interned tile ids: validity and host-validity bits
(``directory._valid``), the in-flight destination bitmask
(``directory._fmask`` — one integer test answers "nothing in flight", the
overwhelmingly common case), the insertion-ordered flight maps
(``directory._flights``) and the page-lock deadlines (``_pin_ready``, indexed
by the run-local :meth:`DataStore.matrix_index`).  Source selection reads the
fabric's precomputed tables (`rank_key`, `best_source_by_mask`,
`mask_members`, `link_bandwidth`) instead of re-deriving topology facts per
transfer.

Residency has one implementation, :meth:`ensure_resident_batch`: one pass
over all of a task's accesses with every per-access attribute lookup hoisted.
The executor's launch path calls it with a task's access list;
:meth:`ensure_resident` (the data-distribution upload) calls it with one read
access and drops the launch pin again.  The order of its cache counters,
channel reservations, directory transitions and completion posts is part of
the virtual-time contract pinned by the golden makespans and trace digests.
"""

from __future__ import annotations

from operator import add
from typing import Iterable, Sequence

from repro.errors import CoherenceError
from repro.memory.cache import DeviceCache
from repro.memory.coherence import CoherenceDirectory, ReplicaState
from repro.memory.tile import Tile, TileKey
from repro.runtime.access import Access
from repro.runtime.datastore import DataStore
from repro.runtime.fabric import Fabric
from repro.runtime.policies import SourcePolicy
from repro.sim.engine import Simulator
from repro.sim.trace import TraceCategory, TraceRecorder
from repro.topology.link import HOST
from repro.topology.platform import Platform

#: bit of the host inside the validity / in-flight masks (``HOST + 1 == 0``).
_HOST_BIT = 1 << (HOST + 1)


def _mix(matrix_index: int, i: int, j: int, dst: int) -> int:
    """Deterministic integer hash of (tile, destination) — stable across
    processes (pure integer arithmetic, no salted hashing).

    ``matrix_index`` must be the run-local :meth:`DataStore.matrix_index`,
    never the process-global ``Matrix.id``: a cell's simulated outcome has
    to be a pure function of its spec (the sweep executor caches outcomes
    and replays them across processes), so no input may encode how many
    matrices happened to exist earlier in the process.
    """
    h = (matrix_index * 1000003 + i * 10007 + j * 101 + dst) & 0xFFFFFFFF
    h ^= h >> 16
    h = (h * 0x45D9F3B) & 0xFFFFFFFF
    h ^= h >> 16
    return h


class TransferManager:
    """Replica movement engine shared by all simulated libraries."""

    def __init__(
        self,
        sim: Simulator,
        platform: Platform,
        fabric: Fabric,
        directory: CoherenceDirectory,
        datastore: DataStore,
        caches: dict[int, DeviceCache],
        trace: TraceRecorder,
        policy: SourcePolicy = SourcePolicy.TOPOLOGY_OPTIMISTIC,
        pinning_bandwidth: float | None = None,
        sanitizer=None,
    ) -> None:
        self.sim = sim
        #: optional :class:`repro.verify.coherence.CoherenceSanitizer` called
        #: after every directory state transition (``verify_coherence`` mode).
        self.sanitizer = sanitizer
        self.platform = platform
        self.fabric = fabric
        self.directory = directory
        self.datastore = datastore
        self.caches = caches
        #: the shared-elsewhere hint feeds only policies whose rank reads it
        #: (BLASX two-level); for the others the directory walk after every
        #: write and transfer landing is maintenance of a bit nobody
        #: consults, so it is skipped wholesale.
        self._track_shared = any(
            cache.policy.rank_uses_shared for cache in caches.values()
        )
        self.trace = trace
        self.policy = policy
        #: host page-locking model (None = ignored, the paper's methodology).
        self.pinning_bandwidth = pinning_bandwidth
        #: array-backed page-lock deadlines, indexed by the run-local
        #: :meth:`DataStore.matrix_index` (-1.0 = not yet page-locked).
        self._pin_ready: list[float] = []
        self._pin_clock = 0.0  # page-locking is serial host work
        # Direct references into the directory's interning dict and state
        # arrays for the residency fast paths below.  All are bound once in
        # CoherenceDirectory.__init__ and only ever mutated in place
        # (append/assign), never rebound, so the aliases stay live.
        self._dir_ids = directory._ids
        self._dir_valid = directory._valid
        self._dir_fmask = directory._fmask
        self._dir_flights = directory._flights
        # Source-selection tables, built once per platform on the fabric and
        # shared by every consumer (see Fabric.__init__).
        self._rank_key = fabric.rank_key
        self._link_bandwidth = fabric.link_bandwidth
        self._best_by_mask = fabric.best_source_by_mask
        self._mask_members = fabric.mask_members
        #: per-device estimate rows of :meth:`estimate_transfers`, filled on
        #: first use per ``(nbytes, valid mask, zero mask)``; a hashing pick
        #: (ANY_VALID) depends on the tile as well, so it keeps none.
        self._cost_rows: dict[tuple[int, int, int], tuple[float, ...]] = {}
        self._pick_hashes = policy.uses_device_sources and not policy.topology_aware
        # statistics
        self.h2d_transfers = 0
        self.d2h_transfers = 0
        self.p2p_transfers = 0
        self.optimistic_forwards = 0

    # ------------------------------------------------------------ residency

    def ensure_resident(
        self, tile: Tile, dst: int, protect: tuple[TileKey, ...] = ()
    ) -> float:
        """Make ``tile`` valid on device ``dst``; return its ready time.

        One read access through :meth:`ensure_resident_batch`, whose launch
        pin is dropped again at once: the same hit, in-flight and miss
        operations in the same order, with no pin left behind.
        """
        now = self.sim.now
        ready, _, pinned = self.ensure_resident_batch(
            (tile.read_access,), dst, now, now, protect
        )
        self.caches[dst].unpin_many(pinned)
        return ready

    def ensure_resident_batch(
        self,
        accesses,
        dst: int,
        now: float,
        inputs_ready: float,
        protect: tuple[TileKey, ...] = (),
    ) -> tuple[float, float, list[TileKey]]:
        """Residency for every access of one launching task, in one pass.

        Read accesses are ensured resident on ``dst`` and pinned for the
        launch; WRITE-only accesses get their output allocation.  Returns
        ``(inputs_ready, transfer_cost, pinned)``: the given readiness bound
        folded with every access's ready time, the accumulated per-access
        delay beyond ``now`` (charged to the kernel stream by the no-overlap
        model), and the keys pinned on ``dst`` for the task's lifetime.

        Per read access, in declaration order: a hit counts and pins the
        resident entry; a tile in flight to ``dst`` chains on the landing; a
        miss issues a transfer (:meth:`_issue_transfer`) and adds the launch
        pin atop the landing pin.  A WRITE-only access gets room for its
        allocation unless it is resident or in flight.  The per-access
        attribute traffic is hoisted out of the loop, the hottest of the
        runtime.
        """
        transfer_cost = 0.0
        pinned: list[TileKey] = []
        pinned_append = pinned.append
        cache = self.caches[dst]
        resident = cache._resident
        dir_ids_get = self._dir_ids.get
        dir_valid = self._dir_valid
        dstbit = 1 << (dst + 1)
        for access in accesses:
            tile = access.tile
            key = tile.key
            if access.reads:
                tid = dir_ids_get(key)
                if tid is not None and dir_valid[tid] & dstbit:
                    # A valid replica is byte-accounted on its device.
                    entry = resident[key]
                    cache.hits += 1
                    if now > entry.last_use:
                        entry.last_use = now
                    entry.pins += 1
                    pinned_append(key)
                    continue
                if tid is None:
                    tid = self.directory.lookup(key)
                if self._dir_fmask[tid] & dstbit:
                    # In flight to this device: chain on the landing; the
                    # replica was byte-accounted (and landing-pinned) when
                    # the transfer was issued, so the launch pin is one
                    # entry probe (record_access + pin_if_resident, fused).
                    entry = resident[key]
                    cache.hits += 1
                    entry.pins += 1
                    pinned_append(key)
                    ready = self._dir_flights[tid][dst].completes_at
                else:
                    ready = self._issue_transfer(
                        tile, key, tid, dst, cache, now, protect
                    )
                    cache.pin(key)  # the launch pin, atop the landing pin
                    pinned_append(key)
                if ready > now:
                    transfer_cost += ready - now
                    if ready > inputs_ready:
                        inputs_ready = ready
            else:  # WRITE-only output: room for its allocation
                self.datastore.register(tile)
                if key not in resident:
                    tid = dir_ids_get(key)
                    if tid is None:
                        tid = self.directory.lookup(key)
                    if not self._dir_fmask[tid] & dstbit:
                        ready = self._make_room(dst, tile.nbytes, now)
                        self.datastore.allocate_device_tile(tile, dst)
                        if ready > inputs_ready:
                            inputs_ready = ready
        return inputs_ready, transfer_cost, pinned

    def _issue_transfer(
        self,
        tile: Tile,
        key: TileKey,
        tid: int,
        dst: int,
        cache: DeviceCache,
        now: float,
        protect: tuple[TileKey, ...],
    ) -> float:
        """The residency miss path: pick a source, make room, reserve the
        route, record the flight; returns the landing time.

        The op *order* here (stats, reservation, directory transition,
        insert+pin, completion post) is part of the bit-identity contract —
        recorded goldens pin the exact interleaving.
        """
        self.datastore.register(tile)
        if cache.record_access(key):
            # Resident but not valid and not in flight: stale bytes left by a
            # same-instant invalidation while pinned.
            cache.remove(key)
            self.datastore.drop_device_tile(key, dst)
        source, source_ready = self._select_source(key, dst, now, tid)
        alloc_ready = self._make_room(dst, tile.nbytes, now, protect=protect)
        if source == HOST:
            pin_ready = self._ensure_pinned(tile, now)
            if pin_ready > source_ready:
                source_ready = pin_ready
        # max(now, source_ready, alloc_ready), inlined (per-transfer path).
        start_lb = now
        if source_ready > start_lb:
            start_lb = source_ready
        if alloc_ready > start_lb:
            start_lb = alloc_ready
        start, end = self.fabric.reserve(source, dst, tile.nbytes, start_lb)
        self.directory.begin_transfer(tid, dst, completes_at=end, source=source)
        # Insert + protect until landed; the landing pin drops in the
        # completion event.
        cache.insert(key, tile.nbytes, now=end, pins=1)
        # Pin the source replica too: a DMA must not read a freed buffer.
        src_pinned = source != HOST and self.caches[source].pin_if_resident(key)
        if source == HOST:
            self.h2d_transfers += 1
            if self.trace.enabled:
                self.trace.record(
                    TraceCategory.MEMCPY_HTOD, dst, start, end,
                    lambda: f"h2d {key}", tile.nbytes,
                )
        else:
            self.p2p_transfers += 1
            if self.trace.enabled:
                self.trace.record(
                    TraceCategory.MEMCPY_PTOP, dst, start, end,
                    lambda: f"p2p {source}->{dst} {key}", tile.nbytes,
                )

        self.sim.post(end, self._complete_d2d, tile, tid, source, dst, src_pinned)
        if self.sanitizer is not None:
            self.sanitizer.check_tile(key)
        return end

    def _complete_d2d(
        self, tile: Tile, tid: int, source: int, dst: int, src_pinned: bool
    ) -> None:
        """Completion event of a transfer landed on device ``dst``.

        ``tid`` is the directory id interned when the transfer was issued —
        ids are stable for the lifetime of the directory, so the completion
        event reuses it instead of re-hashing the key.
        """
        key = tile.key
        cache = self.caches[dst]
        landed = self.directory.complete_transfer(tid, dst)
        cache.unpin(key)
        if src_pinned:
            self.caches[source].unpin_if_resident(key)
        if landed:
            self.datastore.copy_tile(tile, source, dst)
            if self._track_shared:
                self._refresh_shared_flags(key, tid)
        else:
            # Invalidated mid-flight by a writer: drop the stale bytes.
            cache.remove(key)
            self.datastore.drop_device_tile(key, dst)
        if self.sanitizer is not None:
            self.sanitizer.check_tile(key)

    def _tile_mix(self, key: TileKey, dst: int) -> int:
        """The no-ranking pseudo-random pick, keyed on run-local state only."""
        return _mix(self.datastore.matrix_index(key.matrix_id), key.i, key.j, dst)

    def _select_source(
        self, key: TileKey, dst: int, now: float, tid: int
    ) -> tuple[int, float]:
        """Pick ``(source_location, source_ready_time)`` per the active policy.

        ``tid`` is the directory id of ``key`` — the caller already interned
        it, so this path never re-hashes the key against the directory.
        """
        dmask = (self._dir_valid[tid] >> 1) & ~(1 << dst)
        policy = self.policy
        if dmask and policy.uses_device_sources:
            best = self._device_source(key, dst, dmask)
            self.caches[best].touch(key, now)
            return best, now
        fmask = self._dir_fmask[tid]
        if policy.optimistic and fmask & ~_HOST_BIT & ~(1 << (dst + 1)):
            # Optimistic device-to-device forwarding (§III-C): prefer waiting
            # for an in-flight replica and forwarding it over NVLink to
            # issuing another host copy over the congested PCIe fabric — but
            # only when the estimated arrival actually beats the direct host
            # route (a forward behind a long DMA backlog would be pessimism,
            # not optimism).  The flight-mask guard above skips the estimate
            # entirely when nothing is in flight toward another device.
            nbytes = self.datastore.tile(key).nbytes
            fabric = self.fabric
            host_eta = fabric.estimate(HOST, dst, nbytes, now)
            best_flight = None
            best_eta = host_eta
            for flight in self._dir_flights[tid].values():
                fdst = flight.dst
                if fdst == dst or fdst == HOST:
                    continue
                eta = fabric.estimate(
                    fdst, dst, nbytes, max(now, flight.completes_at)
                )
                if eta < best_eta:
                    best_flight, best_eta = flight, eta
            if best_flight is not None:
                self.optimistic_forwards += 1
                return best_flight.dst, best_flight.completes_at
        # Fall back to the host.
        return HOST, self._host_ready(key, tid, now)

    def _device_source(self, key: TileKey, dst: int, dmask: int) -> int:
        """The device replica a transfer of ``key`` to ``dst`` reads from,
        among the non-empty candidate bitmask ``dmask`` (``dst`` excluded).

        The one home of the device pick: the transfer path and the
        schedulers' estimates (:meth:`estimate_transfers`) both call it.
        """
        if self.policy.topology_aware:
            table = self._best_by_mask
            if table is not None:
                # Equivalent to Platform.peers_by_rank(dst, candidates)[0]
                # (min over the same (rank, device-id) key), precomputed for
                # every candidate mask — one list index per pick.
                return table[dst][dmask]
            # Platform too large for mask tables: walk the bitmask.
            return min(self._mask_walk(dmask), key=self._rank_key[dst].__getitem__)
        # "No ranking" = whichever replica the runtime happens to find first;
        # modelled as a deterministic pseudo-random pick so no artificial hot
        # source emerges (the paper's no-topo variant is link-class-blind, not
        # systematically biased).
        members = self._mask_members
        candidates = members[dmask] if members is not None else self._mask_walk(dmask)
        return candidates[self._tile_mix(key, dst) % len(candidates)]

    def _ensure_pinned(self, tile: Tile, now: float) -> float:
        """First host DMA touching a matrix pays its page-locking time.

        One serial host pass over the whole matrix (cudaHostRegister), charged
        once; later transfers of the same matrix are free — the amortization
        the paper assumes (§IV-A).
        """
        if self.pinning_bandwidth is None:
            return now
        matrix = tile.matrix
        idx = self.datastore.matrix_index(matrix.id)
        ready = self._pin_ready
        if idx >= len(ready):
            ready.extend([-1.0] * (idx + 1 - len(ready)))
        done = ready[idx]
        if done >= 0.0:
            return max(now, done)
        start = max(now, self._pin_clock)
        done = start + matrix.nbytes / self.pinning_bandwidth
        self._pin_clock = done
        ready[idx] = done
        if self.trace.enabled:
            self.trace.record(
                TraceCategory.HOST, -1, start, done,
                lambda: f"pin {matrix.name}", matrix.nbytes,
            )
        return done

    # ----------------------------------------------------------- estimating

    def estimate_transfers(self, accesses: Iterable[Access]) -> Sequence[float]:
        """Estimated input-transfer time of one task on every device.

        Entry ``d`` sums, in access order, ``nbytes / bandwidth`` over the
        read tiles neither valid nor in flight on device ``d``, the bandwidth
        being that of the link from the source :meth:`_select_source` would
        pick without its optimistic forward (the host when no device may
        serve) — StarPU's calibrated bus model, as DMDAS consults it.
        Read-only apart from interning first-seen keys.

        One pass over the accesses: each key is interned once, its valid and
        in-flight masks read once, and its per-device costs come as one row
        of :meth:`_cost_row`, memoized per ``(nbytes, valid mask, zero
        mask)`` — except under a hashing pick (ANY_VALID), whose rows depend
        on the tile and are built per access.  Per-device sums keep access
        order and a free tile adds exactly ``0.0``, so each entry is the float
        that summing one device's costs tile by tile gives.
        """
        total: Sequence[float] | None = None
        ids_get = self._dir_ids.get
        valid = self._dir_valid
        fmask = self._dir_fmask
        rows = self._cost_rows
        for access in accesses:
            if not access.reads:
                continue
            tile = access.tile
            key = tile.key
            tid = ids_get(key)
            if tid is None:
                tid = self.directory.lookup(key)
            vmask = valid[tid] >> 1
            row_key = (tile.nbytes, vmask, vmask | (fmask[tid] >> 1))
            row = rows.get(row_key)
            if row is None:
                row = self._cost_row(key, *row_key)
                if not self._pick_hashes:
                    rows[row_key] = row
            # The first row is the sum itself (0.0 + c == c for every c).
            total = row if total is None else list(map(add, total, row))
        if total is None:
            return (0.0,) * self.platform.num_gpus
        return total

    def _cost_row(
        self, key: TileKey, nbytes: int, vmask: int, zmask: int
    ) -> tuple[float, ...]:
        """Estimated time to bring one ``nbytes`` tile to each device.

        ``0.0`` on the devices of ``zmask`` (valid or in flight there), else
        ``nbytes`` over the bandwidth from the device replica in ``vmask``
        the policy picks, or from the host when it may not pick one.
        """
        from_devices = vmask and self.policy.uses_device_sources
        host_cost = nbytes / self.platform.host_bandwidth
        row = []
        for dst in range(self.platform.num_gpus):
            if zmask >> dst & 1:
                row.append(0.0)
            elif from_devices:
                src = self._device_source(key, dst, vmask)
                row.append(nbytes / self._link_bandwidth[(src, dst)])
            else:
                row.append(host_cost)
        return tuple(row)

    @staticmethod
    def _mask_walk(dmask: int) -> list[int]:
        """Set bits of a validity mask in ascending device order (fallback
        for platforms too large for the fabric's precomputed mask tables)."""
        out = []
        m = dmask
        while m:
            low = m & -m
            m ^= low
            out.append(low.bit_length() - 1)
        return out

    # ----------------------------------------------------------- host flush

    def ensure_host_valid(self, tile: Tile, earliest: float | None = None) -> float:
        """Make the host copy of ``tile`` valid (D2H write-back); return time.

        The user-facing flush of ``memory_coherent_async`` (lazy coherence,
        §IV-F), no earlier than ``earliest``; :meth:`_host_ready` decides.
        """
        now = self.sim.now if earliest is None else max(self.sim.now, earliest)
        key = tile.key
        tid = self._dir_ids.get(key)
        if tid is None:
            tid = self.directory.lookup(key)
        return self._host_ready(key, tid, now)

    def _host_ready(self, key: TileKey, tid: int, now: float) -> float:
        """When the host copy of ``key`` is valid, from ``now`` on.

        The one rule for the host-fallback source, the user flush and dirty
        eviction victims: ``now`` if the host copy is valid, the landing
        of a write-back already in flight, else the landing of a write-back
        reserved and issued here from :meth:`_writeback_source`.
        """
        if self._dir_valid[tid] & _HOST_BIT:
            return now
        if self._dir_fmask[tid] & _HOST_BIT:
            return max(now, self._dir_flights[tid][HOST].completes_at)
        tile = self.datastore.tile(key)
        source = self._writeback_source(key, tid)
        start, end = self.fabric.reserve_d2h(source, tile.nbytes, now)
        self._issue_writeback(tile, key, tid, source, start, end, now)
        return end

    def _writeback_source(self, key: TileKey, tid: int) -> int:
        """The device a write-back of ``key`` reads from: the MODIFIED
        replica, else the lowest-numbered valid device.

        Callers have checked that the host copy is not valid, and a MODIFIED
        host copy would be, so the pick is always a device.
        """
        owner = self.directory.modified_location(tid)
        if owner is not None:
            return owner
        dmask = self._dir_valid[tid] >> 1
        if not dmask:
            raise CoherenceError(f"{key}: no valid replica anywhere")
        return (dmask & -dmask).bit_length() - 1

    def _issue_writeback(
        self, tile: Tile, key: TileKey, tid: int, source: int,
        start: float, end: float, now: float,
    ) -> None:
        """Record a D2H write-back reserved on ``[start, end]``: the flight,
        the source pin, the statistics, the trace interval and the landing.

        The source replica is touched and pinned in one entry probe; a
        victim :meth:`_make_room` already took off ``source`` is not
        resident there, so it gets no pin.  Callers reserve the interval
        with :meth:`Fabric.reserve_d2h` just before.
        """
        self.directory.begin_transfer(tid, HOST, completes_at=end, source=source)
        entry = self.caches[source]._resident.get(key)
        src_pinned = entry is not None
        if src_pinned:
            if now > entry.last_use:
                entry.last_use = now
            entry.pins += 1
        self.d2h_transfers += 1
        if self.trace.enabled:
            self.trace.record(
                TraceCategory.MEMCPY_DTOH, source, start, end,
                lambda: f"d2h {key}", tile.nbytes,
            )
        self.sim.post(end, self._complete_d2h, tile, tid, source, src_pinned)
        if self.sanitizer is not None:
            self.sanitizer.check_tile(key)

    def _complete_d2h(
        self, tile: Tile, tid: int, source: int, src_pinned: bool
    ) -> None:
        """Completion event of a write-back landed on the host."""
        key = tile.key
        directory = self.directory
        landed = directory.complete_transfer(tid, HOST)
        if src_pinned:
            self.caches[source].unpin_if_resident(key)
        if landed:
            self.datastore.copy_tile(tile, source, HOST)
            state = directory.state(tid, source)
            if state is ReplicaState.MODIFIED:
                directory.downgrade(tid, source)
            if state is not None and key in self.caches[source]:
                self.caches[source].mark_dirty(key, False)
        if self.sanitizer is not None:
            self.sanitizer.check_tile(key)

    # -------------------------------------------------------------- writes

    def register_write(self, tile: Tile, device: int, when: float) -> None:
        """A kernel on ``device`` wrote ``tile`` at time ``when``.

        The directory invalidates every other replica; caches and the data
        store drop theirs.
        """
        key = tile.key
        tid = self._dir_ids.get(key)
        if tid is None:
            tid = self.directory.lookup(key)
        caches = self.caches
        m = (self._dir_valid[tid] >> 1) & ~(1 << device)
        while m:
            low = m & -m
            m ^= low
            other = low.bit_length() - 1
            ccache = caches.get(other)
            if ccache is not None:
                oentry = ccache._resident.get(key)
                if oentry is not None and not oentry.pins:
                    # cache.remove, inlined (the pin guard above already ran).
                    del ccache._resident[key]
                    ccache._used -= oentry.nbytes
                    self.datastore.drop_device_tile(key, other)
                # else: pinned elsewhere (running reader finished at same
                # instant, event ordering): keep bytes, directory invalidates
                # below.
        self.directory.write(tid, device)
        cache = caches[device]
        # One dict lookup covers the "already resident" test and the
        # dirty/recency update.
        entry = cache._resident.get(key)
        if entry is None:
            # WRITE-only access: the output tile was allocated, not transferred.
            # Space was planned at launch (ensure_resident_batch) but may have
            # been consumed by concurrent stagings; evict again if needed
            # (write-back delay of victims is already covered by their own D2H
            # reservations).
            self._make_room(device, tile.nbytes, when)
            cache.insert(key, tile.nbytes, now=when)
            entry = cache._resident[key]
        entry.dirty = True
        if when > entry.last_use:
            entry.last_use = when
        if self._track_shared:
            self._refresh_shared_flags(key, tid)
        if self.sanitizer is not None:
            self.sanitizer.check_tile(key)

    # ------------------------------------------------------------- eviction

    def _make_room(
        self, device: int, nbytes: int, now: float, protect: tuple[TileKey, ...] = ()
    ) -> float:
        """Evict until ``nbytes`` fit on ``device``; return readiness time.

        One loop over the entries :meth:`DeviceCache.take_victims` removed,
        best victim first.  A clean victim is evicted and its device tile
        dropped.  A dirty one is forgotten eagerly once its data is safe
        (:meth:`_host_ready`): its host copy is valid, its write-back is
        already in flight, or a new write-back is reserved and issued.  The
        in-flight record to HOST keeps the tile alive in the directory, so
        later requests chain on the write-back instead of seeing a phantom
        device copy; the DMA's source buffer survives in the data store
        until the flight lands.

        The loop issues the same reservations, directory transitions and
        completion posts in the same order as reserving every fresh
        write-back first and then applying each victim: victims are distinct
        tiles, so no victim's classification depends on another's
        processing, and reservations draw no engine sequence numbers.
        """
        cache = self.caches[device]
        if nbytes <= cache.free:
            return now  # fits as-is; skip the victim-selection machinery
        datastore = self.datastore
        directory = self.directory
        dir_ids_get = self._dir_ids.get
        sanitizer = self.sanitizer
        ready = now
        for entry in cache.take_victims(nbytes, protect):
            vkey = entry.key
            tid = dir_ids_get(vkey)
            if tid is None:
                tid = directory.lookup(vkey)
            if entry.dirty:
                end = self._host_ready(vkey, tid, now)
                if end > ready:
                    ready = end
                directory.discard(tid, device)
                if self._track_shared:
                    self._refresh_shared_flags(vkey, tid)
                self.sim.post(end, datastore.drop_device_tile, vkey, device)
            else:
                directory.evict(tid, device)
                datastore.drop_device_tile(vkey, device)
                if self._track_shared:
                    self._refresh_shared_flags(vkey, tid)
            if sanitizer is not None:
                sanitizer.check_tile(vkey)
        return ready

    # ----------------------------------------------------------- bookkeeping

    def _refresh_shared_flags(self, key: TileKey, tid: int) -> None:
        """Maintain the BLASX-policy hint: is the tile replicated elsewhere?

        Callers skip it unless ``_track_shared`` is set.
        """
        m = self._dir_valid[tid] >> 1  # device replicas (host bit dropped)
        multi = m.bit_count() > 1
        caches = self.caches
        while m:
            low = m & -m
            m ^= low
            cache = caches.get(low.bit_length() - 1)
            if cache is not None:
                # Must go through the cache method: a shared-hint change
                # re-ranks the entry in the victim index, and a flag
                # *clearing* in particular has to re-stamp eagerly.
                cache.mark_shared_elsewhere(key, multi)

    def stats(self) -> dict[str, int]:
        return {
            "h2d": self.h2d_transfers,
            "d2h": self.d2h_transfers,
            "p2p": self.p2p_transfers,
            "optimistic_forwards": self.optimistic_forwards,
        }
