"""``TransferManager.estimate_transfers`` against the per-device estimator.

DMDAS prices each candidate device with the input-transfer time a task would
pay there.  The reference model below is that estimate computed one device
at a time, as the scheduler did before the one-pass row table: per device,
skip tiles in flight to it, ask the read-only source preview for each
remaining read tile and sum ``nbytes / bandwidth`` in access order.  The
one-pass form must reproduce every entry bit for bit, under every source
policy, while the directory state moves under it between estimates (so a
memoized row is reused across tiles and states).
"""

from hypothesis import given, settings, strategies as st

from repro import Runtime, RuntimeOptions
from repro.memory.matrix import Matrix
from repro.runtime.access import Access, AccessMode
from repro.runtime.policies import SourcePolicy
from repro.topology.dgx1 import make_dgx1
from repro.topology.link import HOST
from repro.topology.nvswitch import make_nvswitch_node
from tests.directory_views import in_flight_to, is_valid, valid_devices

_INF = float("inf")


def _mask_walk(dmask):
    out = []
    while dmask:
        low = dmask & -dmask
        dmask ^= low
        out.append(low.bit_length() - 1)
    return out


def reference_preview_source(transfer, key, dst):
    """Where a transfer of ``key`` to ``dst`` would come from, and at what
    bandwidth (``inf`` when the tile is already valid there)."""
    directory = transfer.directory
    fabric = transfer.fabric
    policy = transfer.policy
    tid = directory.lookup(key)
    if is_valid(directory, tid, dst):
        return dst, _INF
    dmask = sum(1 << d for d in valid_devices(directory, tid) if d != dst)
    if dmask and policy.uses_device_sources:
        if policy.topology_aware:
            table = fabric.best_source_by_mask
            if table is not None:
                src = table[dst][dmask]
            else:
                src = min(_mask_walk(dmask), key=fabric.rank_key[dst].__getitem__)
        else:
            members = fabric.mask_members
            candidates = members[dmask] if members is not None else _mask_walk(dmask)
            src = candidates[transfer._tile_mix(key, dst) % len(candidates)]
        return src, fabric.link_bandwidth[(src, dst)]
    return HOST, transfer.platform.host_bandwidth


def reference_transfer_estimate(transfer, accesses, device):
    """Predicted input-transfer time of ``accesses`` on one device."""
    total = 0.0
    for access in accesses:
        if not access.reads:
            continue
        key = access.tile.key
        directory = transfer.directory
        if in_flight_to(directory, directory.lookup(key), device) is not None:
            continue
        _, bw = reference_preview_source(transfer, key, device)
        if bw != _INF:
            total += access.tile.nbytes / bw
    return total


_POLICIES = list(SourcePolicy)

#: ``(kind, tile index, location, flag)``: a directory transition, or an
#: estimate.
_STEP = st.tuples(
    st.sampled_from(["seed", "flight", "land", "write", "estimate"]),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=-1, max_value=8),
    st.booleans(),
)


def _apply(directory, tid, kind, loc, flag):
    """One directory transition, skipped where the directory would refuse it."""
    if kind == "seed" and loc != HOST:
        directory.seed_device(tid, loc, exclusive=flag)
    elif kind == "flight":
        if not is_valid(directory, tid, loc) and in_flight_to(directory, tid, loc) is None:
            directory.begin_transfer(tid, loc, completes_at=1.0, source=HOST)
    elif kind == "land":
        if in_flight_to(directory, tid, loc) is not None:
            directory.complete_transfer(tid, loc)
    elif kind == "write" and loc != HOST:
        directory.write(tid, loc)


def _check(rt, accesses, num_gpus):
    got = rt.transfer.estimate_transfers(accesses)
    want = [reference_transfer_estimate(rt.transfer, accesses, d) for d in range(num_gpus)]
    assert [x.hex() for x in got] == [x.hex() for x in want]


@given(
    num_gpus=st.one_of(st.integers(min_value=1, max_value=8), st.just(16)),
    policy=st.sampled_from(_POLICIES),
    n=st.sampled_from([1024, 1300, 1800]),
    masks=st.lists(st.integers(min_value=0, max_value=0xFFFF), min_size=1, max_size=3),
    steps=st.lists(_STEP, max_size=40),
    tasks=st.lists(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.sampled_from(list(AccessMode)),
            ),
            min_size=1,
            max_size=5,
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=150, deadline=None)
def test_property_estimates_match_per_device_reference(
    num_gpus, policy, n, masks, steps, tasks
):
    """Random valid masks, in-flight transfers (host and device bound),
    ragged tiles, all four policies, 1-8 DGX-1 GPUs plus a 16-GPU NVSwitch
    node (too large for the fabric's mask tables): every estimate entry
    equals the per-device reference, ``float.hex`` for ``float.hex``.

    Tiles start with replicas on the devices of ``masks[t % len(masks)]``,
    so distinct tiles share valid masks — the memoized rows are keyed on
    them — before the steps move the state between estimates.
    """
    platform = make_dgx1(num_gpus) if num_gpus <= 8 else make_nvswitch_node(num_gpus)
    rt = Runtime(platform, RuntimeOptions(source_policy=policy))
    part = rt.partition(Matrix.meta(n, n, name="A"), 512)
    tiles = list(part)
    locations = [HOST, *range(num_gpus)]
    directory = rt.directory
    for t, tile in enumerate(tiles):
        tid = directory.lookup(tile.key)
        for d in range(num_gpus):
            if masks[t % len(masks)] >> d & 1:
                directory.seed_device(tid, d, exclusive=False)

    def task(i):
        return [Access(tiles[t % len(tiles)], mode) for t, mode in tasks[i % len(tasks)]]

    for s, (kind, ti, li, flag) in enumerate(steps):
        if kind == "estimate":
            _check(rt, task(s), num_gpus)
        else:
            tid = directory.lookup(tiles[ti % len(tiles)].key)
            _apply(directory, tid, kind, locations[li % len(locations)], flag)
    for i in range(len(tasks)):  # and every task at the final state
        _check(rt, task(i), num_gpus)
