"""Property-based end-to-end tests of the executor.

Hypothesis generates random task graphs (random tile reads, random writes,
random policies/schedulers) and runs them through the full simulated stack.
Invariants checked after every run:

* every task completes, no deadlock;
* kernel intervals on one device never overlap (single compute engine);
* dependent tasks never overlap in virtual time;
* the coherence directory stays consistent (at most one MODIFIED replica per
  tile, cache contents match directory contents);
* numeric mode computes exactly what a sequential replay computes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import Runtime, RuntimeOptions
from repro.memory.coherence import ReplicaState
from repro.memory.matrix import Matrix
from repro.runtime.policies import SourcePolicy
from repro.runtime.task import Task
from repro.sim.trace import TraceCategory
from repro.topology.dgx1 import make_dgx1
from repro.topology.link import HOST
from tests.access_lists import make_access_list
from tests.directory_views import is_valid

PLATFORM = make_dgx1(4)
TILES = 6


@st.composite
def task_specs(draw):
    """A list of (reads, write, flops_scale) over a 6-tile pool."""
    n = draw(st.integers(1, 25))
    specs = []
    for _ in range(n):
        w = draw(st.integers(0, TILES - 1))
        reads = draw(
            st.lists(st.integers(0, TILES - 1), max_size=3, unique=True)
        )
        reads = [r for r in reads if r != w]
        rw = draw(st.booleans())
        scale = draw(st.integers(1, 10))
        specs.append((reads, w, rw, scale))
    return specs


def build_and_run(specs, policy, scheduler, numeric=False):
    opts = RuntimeOptions(source_policy=policy, scheduler=scheduler)
    rt = Runtime(PLATFORM, opts)
    mat = (
        Matrix.random(TILES * 16, 16, seed=1)
        if numeric
        else Matrix.meta(TILES * 16, 16)
    )
    part = rt.partition(mat, 16)
    tiles = part.col(0)
    tasks = []
    for reads, w, rw, scale in specs:
        def kern(*arrays, scale=scale, rw=rw):
            *ins, out = arrays
            if rw:
                out *= 0.5
                out += scale
            else:
                out[...] = scale  # WRITE-only: old content is undefined
            for x in ins:
                out += 0.01 * x

        t = Task(
            name="k",
            accesses=make_access_list(
                reads=[tiles[r] for r in reads],
                readwrites=[tiles[w]] if rw else [],
                writes=[] if rw else [tiles[w]],
            ),
            flops=1e8 * scale,
            dim=256,
            kernel=kern if numeric else None,
        )
        tasks.append(rt.submit(t))
    rt.memory_coherent_async(mat, 16)
    rt.sync(max_events=200_000)
    return rt, mat, part, tasks


@settings(max_examples=40, deadline=None)
@given(task_specs(), st.sampled_from(list(SourcePolicy)),
       st.sampled_from(["xkaapi-locality-ws", "starpu-dmdas"]))
def test_property_random_graphs_complete_with_invariants(specs, policy, scheduler):
    rt, mat, part, tasks = build_and_run(specs, policy, scheduler)
    # 1. everything completed
    assert all(t.state == "done" for t in tasks)
    # 2. kernel intervals on one device never overlap
    for dev in PLATFORM.device_ids():
        ivs = sorted(
            (iv.start, iv.end)
            for iv in rt.trace.filter(category=TraceCategory.KERNEL, device=dev)
        )
        for (s1, e1), (s2, e2) in zip(ivs, ivs[1:]):
            assert s2 >= e1 - 1e-12
    # 3. dependencies respected in virtual time
    for t in tasks:
        for succ in t.successors:
            if succ.name == "flush":
                continue
            assert succ.start_time >= t.end_time - 1e-12
    # 4. coherence: at most one MODIFIED replica; caches mirror the directory
    d = rt.directory
    for tile in part:
        key = tile.key
        tid = d.lookup(key)
        modified = [
            loc
            for loc in ([HOST] + list(PLATFORM.device_ids()))
            if d.state(tid, loc) is ReplicaState.MODIFIED
        ]
        assert len(modified) <= 1
        for dev in PLATFORM.device_ids():
            if is_valid(d, tid, dev):
                assert key in rt.caches[dev], (key, dev)
        # flushed at the end: host must be valid again
        assert d.host_valid(tid)
    # 5. every cache byte accounted
    for dev, cache in rt.caches.items():
        assert 0 <= cache._used <= cache.capacity


@settings(max_examples=15, deadline=None)
@given(task_specs(), st.sampled_from([SourcePolicy.TOPOLOGY_OPTIMISTIC,
                                      SourcePolicy.HOST_ONLY]))
def test_property_numeric_matches_sequential_replay(specs, policy):
    """The distributed execution computes exactly what a sequential replay of
    the same task list computes (dataflow order = program order per tile)."""
    rt, mat, part, tasks = build_and_run(specs, policy, "xkaapi-locality-ws",
                                         numeric=True)
    # Sequential replay on a fresh copy.
    ref = Matrix.random(TILES * 16, 16, seed=1).to_array()
    tiles_slices = [
        (slice(i * 16, (i + 1) * 16), slice(0, 16)) for i in range(TILES)
    ]
    for reads, w, rw, scale in specs:
        out = ref[tiles_slices[w]]
        if rw:
            out *= 0.5
            out += scale
        else:
            out[...] = scale
        for r in reads:
            out += 0.01 * ref[tiles_slices[r]]
    np.testing.assert_allclose(mat.to_array(), ref, atol=1e-9)
