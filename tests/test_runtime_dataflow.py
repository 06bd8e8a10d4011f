"""Tests for the dataflow dependency builder."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.blas.tiled import build_gemm
from repro.errors import TaskGraphError
from repro.memory.layout import TilePartition
from repro.memory.matrix import Matrix
from repro.runtime.access import Access, AccessMode
from repro.runtime.api import Runtime, RuntimeOptions
from repro.runtime.dataflow import TaskGraph
from repro.runtime.task import Task
from repro.topology.dgx1 import make_dgx1
from repro.verify.graph import verify_graph
from tests.access_lists import make_access_list


def tiles(n=4):
    return TilePartition(Matrix.meta(n * 8, 8), nb=8).col(0)


def task(name, reads=(), writes=(), readwrites=()):
    return Task(
        name=name,
        accesses=make_access_list(reads, writes, readwrites),
        flops=1.0,
        dim=8,
    )


def test_reader_depends_on_last_writer():
    t = tiles()
    g = TaskGraph()
    w = g.add(task("w", writes=[t[0]]))
    r = g.add(task("r", reads=[t[0]], writes=[t[1]]))
    assert r.unfinished_predecessors == 1
    assert r in w.successors


def test_independent_tiles_no_dependency():
    t = tiles()
    g = TaskGraph()
    g.add(task("a", writes=[t[0]]))
    b = g.add(task("b", writes=[t[1]]))
    assert b.unfinished_predecessors == 0


def test_writer_after_readers_waits_for_all_readers():
    t = tiles()
    g = TaskGraph()
    w0 = g.add(task("w0", writes=[t[0]]))
    r1 = g.add(task("r1", reads=[t[0]], writes=[t[1]]))
    r2 = g.add(task("r2", reads=[t[0]], writes=[t[2]]))
    w1 = g.add(task("w1", writes=[t[0]]))
    assert w1.unfinished_predecessors == 3  # w0 (WAW) + two readers (WAR)
    g.complete(w0)
    assert w1.state == "waiting"
    g.complete(r1)
    g.complete(r2)
    assert w1.state == "ready"


def test_readers_do_not_depend_on_each_other():
    t = tiles()
    g = TaskGraph()
    g.add(task("w", writes=[t[0]]))
    r1 = g.add(task("r1", reads=[t[0]], writes=[t[1]]))
    r2 = g.add(task("r2", reads=[t[0]], writes=[t[2]]))
    assert r2.unfinished_predecessors == 1  # only the writer
    assert r2 not in r1.successors


def test_rw_chain_serializes():
    t = tiles()
    g = TaskGraph()
    chain = [g.add(task(f"u{i}", readwrites=[t[0]])) for i in range(4)]
    for prev, nxt in zip(chain, chain[1:]):
        assert nxt in prev.successors
    assert [c.unfinished_predecessors for c in chain] == [0, 1, 1, 1]


def test_multi_tile_dependency_deduped():
    t = tiles()
    g = TaskGraph()
    w = g.add(task("w", writes=[t[0], t[1]]))
    r = g.add(task("r", reads=[t[0], t[1]], writes=[t[2]]))
    assert r.unfinished_predecessors == 1  # one edge despite two shared tiles


def test_dependency_on_done_task_not_counted():
    t = tiles()
    g = TaskGraph()
    w = g.add(task("w", writes=[t[0]]))
    g.complete(w)
    r = g.add(task("r", reads=[t[0]], writes=[t[1]]))
    assert r.unfinished_predecessors == 0
    assert r.state == "ready"


def test_reclaiming_graph_forgets_retired_readers():
    """A retired reader adds no edge, so the reclaiming graph deletes its
    entry: a tile that is never rewritten keeps none per finished reader."""
    t = tiles()
    g = TaskGraph(retain_tasks=False)
    g.complete(g.add(task("w", writes=[t[0]])))
    r1 = g.add(task("r1", reads=[t[0]], writes=[t[1]]))
    r2 = g.add(task("r2", reads=[t[0]], writes=[t[2]]))
    g.complete(r1)
    assert list(g._history[t[0].key].readers_since_write) == [r2.uid]
    w1 = g.add(task("w1", writes=[t[0]]))
    assert w1.unfinished_predecessors == 1  # the live reader only
    assert w1 in r2.successors


def test_reclaiming_run_releases_emptied_reader_and_flight_maps():
    """An emptied per-tile map gives back the table it grew to: after a
    streamed reclaiming GEMM, every reader map and every flight map is the
    size of a fresh ``{}``, not the size of its busiest moment."""
    rt = Runtime(make_dgx1(8), RuntimeOptions(retain_tasks=False, trace=False))
    rt.executor._admission_window = 64
    a, b, c = (Matrix.meta(2048, 2048) for _ in range(3))
    pa, pb, pc = (rt.partition(m, 256) for m in (a, b, c))
    rt.submit_stream(build_gemm(1.0, pa, pb, 0.5, pc))
    rt.memory_coherent_async(c, 256)
    rt.sync()
    graph = rt.executor.graph
    assert graph.num_done == graph.num_tasks > 8 * 8 * 8  # GEMMs + flushes
    empty = sys.getsizeof({})
    history = graph._history.values()
    assert len(history) == 3 * 8 * 8
    assert all(sys.getsizeof(h.readers_since_write) == empty for h in history)
    flights = rt.directory._flights
    assert len(flights) == 3 * 8 * 8
    assert all(sys.getsizeof(f) == empty for f in flights)


def test_cross_call_composition_dependencies():
    """TRSM-then-GEMM style: the second call's readers wait on the first
    call's writers (§IV-F point-to-point synchronization)."""
    t = tiles()
    g = TaskGraph()
    trsm = g.add(task("trsm", readwrites=[t[0]]))
    gemm = g.add(task("gemm", reads=[t[0]], writes=[t[1]]))
    assert gemm in trsm.successors


def test_complete_twice_rejected():
    t = tiles()
    g = TaskGraph()
    w = g.add(task("w", writes=[t[0]]))
    g.complete(w)
    with pytest.raises(TaskGraphError):
        g.complete(w)


def test_task_cannot_join_two_graphs():
    t = tiles()
    g1, g2 = TaskGraph(), TaskGraph()
    w = g1.add(task("w", writes=[t[0]]))
    with pytest.raises(TaskGraphError):
        g2.add(w)


def test_critical_path_priorities_decrease_downstream():
    t = tiles()
    g = TaskGraph()
    a = g.add(task("a", writes=[t[0]]))
    b = g.add(task("b", reads=[t[0]], writes=[t[1]]))
    c = g.add(task("c", reads=[t[1]], writes=[t[2]]))
    g.critical_path_priorities()
    assert a.priority > b.priority > c.priority


def test_validate_acyclic():
    t = tiles()
    g = TaskGraph()
    g.add(task("a", writes=[t[0]]))
    g.add(task("b", reads=[t[0]], writes=[t[1]]))
    assert verify_graph(g) == []


def test_task_requires_accesses():
    with pytest.raises(TaskGraphError):
        Task(name="empty", accesses=[], flops=1.0, dim=8)
    with pytest.raises(TaskGraphError):
        Task(name="neg", accesses=[Access(tiles()[0], AccessMode.WRITE)], flops=-1, dim=8)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 5), max_size=3, unique=True),  # reads
            st.integers(0, 5),  # written tile
        ),
        min_size=1,
        max_size=30,
    )
)
def test_property_replaying_graph_sequentially_matches_program_order(spec):
    """Completing tasks in any topological order respects per-tile hazards:
    for each tile, writers are totally ordered and readers fall between the
    correct writer pair."""
    t = tiles(6)
    g = TaskGraph()
    tasks = []
    for reads, w in spec:
        reads = [r for r in reads if r != w]
        tasks.append(
            g.add(task(f"t{len(tasks)}", reads=[t[i] for i in reads], writes=[t[w]]))
        )
    assert verify_graph(g) == []
    # Simulate: repeatedly complete any ready task (deterministic order).
    done_order = []
    pending = list(tasks)
    while pending:
        ready = [x for x in pending if x.state == "ready"]
        assert ready, "graph deadlocked"
        nxt = ready[0]
        g.complete(nxt)
        done_order.append(nxt)
        pending.remove(nxt)
    # Writers of each tile complete in submission order.
    for tile_idx in range(6):
        writer_uids = [
            x.uid for x in done_order if any(a.tile is t[tile_idx] and a.writes for a in x.accesses)
        ]
        assert writer_uids == sorted(writer_uids)
