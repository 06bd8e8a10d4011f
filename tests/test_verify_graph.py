"""Tests for the task-graph race & deadlock detector (:mod:`repro.verify.graph`).

Positive direction: every graph the tiled builders produce — over random
shapes and tile sizes — certifies clean, as does every graph after real
execution.  Negative direction: each detector rule is proven live by seeding
the violation it exists for (a removed WAR edge, a cycle, a tampered
predecessor counter...) and asserting the corresponding finding code.
"""

import pytest
from hypothesis import given, settings, strategies as st
from tests.test_properties_builders import dims, nbs, part

from repro import Runtime
from repro.blas import tiled
from repro.blas.params import Diag, Side, Trans, Uplo
from repro.errors import VerificationError
from repro.memory.layout import TilePartition
from repro.memory.matrix import Matrix
from repro.runtime.dataflow import TaskGraph
from repro.runtime.task import Task
from repro.topology.dgx1 import make_dgx1
from repro.verify.base import raise_on_findings
from repro.verify.graph import verify_graph
from tests.access_lists import make_access_list


def graph_of(tasks):
    g = TaskGraph()
    for t in tasks:
        g.add(t)
    return g


def codes(findings):
    return {f.code for f in findings}


def tiles(n=4):
    return TilePartition(Matrix.meta(n * 8, 8), nb=8).col(0)


def task(name, reads=(), writes=(), readwrites=()):
    return Task(
        name=name,
        accesses=make_access_list(reads, writes, readwrites),
        flops=1.0,
        dim=8,
    )


# --------------------------------------------------------------- clean graphs


@settings(max_examples=25, deadline=None)
@given(mi=dims, ni=dims, ki=dims, nb=nbs)
def test_gemm_graphs_certify_clean(mi, ni, ki, nb):
    m, n, k = mi * nb + 3, ni * nb + 1, ki * nb + 2
    tasks = tiled.build_gemm(
        1.0, part(m, k, nb), part(k, n, nb), 0.5, part(m, n, nb)
    )
    assert verify_graph(graph_of(tasks)) == []


@settings(max_examples=20, deadline=None)
@given(ni=dims, nb=nbs, uplo=st.sampled_from(list(Uplo)),
       side=st.sampled_from(list(Side)))
def test_trsm_graphs_certify_clean(ni, nb, uplo, side):
    n = ni * nb + 2
    tasks = tiled.build_trsm(
        side, uplo, Trans.NOTRANS, Diag.NONUNIT, 1.0,
        part(n, n, nb), part(n, n, nb),
    )
    assert verify_graph(graph_of(tasks)) == []


@settings(max_examples=20, deadline=None)
@given(ni=dims, ki=dims, nb=nbs, uplo=st.sampled_from(list(Uplo)))
def test_syr2k_graphs_certify_clean(ni, ki, nb, uplo):
    n, k = ni * nb + 1, ki * nb + 2
    tasks = tiled.build_syr2k(
        uplo, Trans.NOTRANS, 1.0, part(n, k, nb), part(n, k, nb), 0.5,
        part(n, n, nb),
    )
    assert verify_graph(graph_of(tasks)) == []


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_access_graphs_certify_clean(data):
    """Arbitrary read/write patterns — duplicates and RW included."""
    pool = tiles(4)
    g = TaskGraph()
    for i in range(data.draw(st.integers(1, 12))):
        reads = data.draw(st.lists(st.sampled_from(pool), max_size=3))
        writes = data.draw(st.lists(st.sampled_from(pool), max_size=2))
        if not reads and not writes:
            reads = [pool[0]]
        g.add(task(f"t{i}", reads=reads, writes=writes))
    assert verify_graph(g) == []


def test_executed_run_graph_certifies_clean():
    rt = Runtime(make_dgx1(2))
    mats = [Matrix.meta(64, 64, name=x) for x in "ABC"]
    parts = [rt.partition(m, 32) for m in mats]
    for t in tiled.build_gemm(1.0, parts[0], parts[1], 0.5, parts[2]):
        rt.submit(t)
    rt.memory_coherent_async(mats[2], 32)
    rt.sync()
    assert verify_graph(rt.executor.graph) == []


# ----------------------------------------------------------------- edge cases


def test_read_write_same_tile_is_not_a_self_conflict():
    t = tiles(1)[0]
    g = TaskGraph()
    g.add(task("w", writes=[t]))
    g.add(task("rw", readwrites=[t]))
    g.add(task("split", reads=[t], writes=[t]))  # R and W as two accesses
    assert verify_graph(g) == []


def test_duplicate_accesses_to_one_tile_in_a_single_task():
    t = tiles(1)[0]
    g = TaskGraph()
    g.add(task("dup", reads=[t, t], writes=[t, t]))
    g.add(task("reader", reads=[t]))
    assert verify_graph(g) == []


def test_dependency_on_already_done_predecessor_is_ordered_by_time():
    t = tiles(1)[0]
    g = TaskGraph()
    a = g.add(task("w", writes=[t]))
    a.start_time, a.end_time = 0.0, 1.0
    g.complete(a)
    b = g.add(task("r", reads=[t]))  # no edge recorded: a was already done
    assert a not in b.successors and not a.successors
    assert verify_graph(g) == []  # b unexecuted: nothing to violate yet
    b.state = "running"
    b.start_time = 2.0
    assert verify_graph(g) == []  # executed after a finished


def test_done_predecessor_with_overlapping_execution_is_a_race():
    t = tiles(1)[0]
    g = TaskGraph()
    a = g.add(task("w", writes=[t]))
    a.start_time, a.end_time = 0.0, 1.0
    g.complete(a)
    b = g.add(task("r", reads=[t]))
    b.state = "running"
    b.start_time = 0.5  # started before its producer finished
    assert codes(verify_graph(g)) == {"G001"}


# ----------------------------------------------------- seeded violations


def war_graph():
    """reader ``a`` then writer ``b`` on one tile: one WAR edge a->b."""
    t = tiles(1)[0]
    g = TaskGraph()
    a = g.add(task("r", reads=[t]))
    b = g.add(task("w", writes=[t]))
    assert b in a.successors and b.unfinished_predecessors == 1
    return g, a, b


def test_missing_war_edge_detected_as_race():
    g, a, b = war_graph()
    a.successors.remove(b)  # seeded builder bug: WAR edge dropped
    b.unfinished_predecessors -= 1
    assert codes(verify_graph(g)) == {"G001"}
    with pytest.raises(VerificationError):
        raise_on_findings(verify_graph(g))


def test_cycle_detected():
    g, a, b = war_graph()
    b.successors.append(a)  # back edge closes the cycle
    a.unfinished_predecessors += 1
    found = codes(verify_graph(g))
    assert "G013" in found  # backward in submission order
    assert "G014" in found  # Kahn sweep proves the cycle (deadlock)


def test_self_dependency_detected():
    g, a, _b = war_graph()
    a.successors.append(a)
    assert "G010" in codes(verify_graph(g))


def test_unknown_successor_detected():
    g, a, _b = war_graph()
    foreign = task("foreign", reads=[tiles(1)[0]])
    a.successors.append(foreign)
    assert "G011" in codes(verify_graph(g))


def test_duplicate_successor_entry_detected():
    g, a, b = war_graph()
    a.successors.append(b)  # would double-decrement b's counter
    b.unfinished_predecessors += 1
    assert "G012" in codes(verify_graph(g))


def test_predecessor_counter_mismatch_detected():
    g, _a, b = war_graph()
    b.unfinished_predecessors += 1  # never reaches zero: silent deadlock
    assert codes(verify_graph(g)) == {"G021"}


def test_done_before_predecessors_detected():
    g, _a, b = war_graph()
    b.state = "done"  # finished although its predecessor never did
    b.start_time, b.end_time = 0.0, 1.0
    assert "G020" in codes(verify_graph(g))


def test_assert_graph_ok_passes_and_raises():
    g, a, b = war_graph()
    raise_on_findings(verify_graph(g))  # clean graph: no exception
    a.successors.remove(b)
    b.unfinished_predecessors -= 1
    with pytest.raises(VerificationError) as exc:
        raise_on_findings(verify_graph(g), context="tampered")
    assert "tampered" in str(exc.value)
    assert any(f.code == "G001" for f in exc.value.findings)
