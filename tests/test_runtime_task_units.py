"""Unit tests for Task/Access/Tile pieces not covered elsewhere."""

import weakref

import numpy as np
import pytest

from repro.errors import TaskGraphError
from repro.memory.layout import TilePartition
from repro.memory.matrix import Matrix
from repro.memory.tile import TileKey
from repro.runtime.access import Access, AccessMode, R, RW, W
from repro.runtime.task import Task, make_access_list


@pytest.fixture()
def tiles():
    return TilePartition(Matrix.meta(64, 64), 32).tiles()


def test_access_mode_flags():
    assert R.reads and not R.writes
    assert W.writes and not W.reads
    assert RW.reads and RW.writes
    assert AccessMode.READWRITE is AccessMode.READ | AccessMode.WRITE


def test_access_repr(tiles):
    assert repr(Access(tiles[0], AccessMode.READ)).startswith("R:")
    assert repr(Access(tiles[0], AccessMode.READWRITE)).startswith("RW:")


def test_make_access_list_order(tiles):
    accesses = make_access_list(
        reads=[tiles[0]], writes=[tiles[1]], readwrites=[tiles[2]]
    )
    assert [a.mode for a in accesses] == [
        AccessMode.READ,
        AccessMode.WRITE,
        AccessMode.READWRITE,
    ]


def test_task_properties(tiles):
    t = Task(
        name="k",
        accesses=make_access_list(reads=[tiles[0], tiles[1]], writes=[tiles[2]]),
        flops=10.0,
        dim=32,
    )
    assert t.reads == [tiles[0], tiles[1]]
    assert t.writes == [tiles[2]]
    assert t.output_tile is tiles[2]
    # input bytes: the two read tiles (the W-only output is not read)
    assert t.input_bytes == 2 * 32 * 32 * 8


def test_rw_counts_as_input(tiles):
    t = Task(
        name="k",
        accesses=make_access_list(readwrites=[tiles[0]]),
        flops=1.0,
        dim=32,
    )
    assert t.input_bytes == tiles[0].nbytes
    assert t.output_tile is tiles[0]


def test_reads_only_task_anchors_on_first_access(tiles):
    t = Task(
        name="flush",
        accesses=[Access(tiles[1], AccessMode.READ)],
        flops=0.0,
        dim=32,
    )
    assert t.output_tile is tiles[1]


def _derived(task):
    return task.access_keys, task.write_accesses, task.output_tile, task.kt_shape


@pytest.mark.parametrize("layout", ["mixed", "reads-only"])
def test_positional_and_keyword_construction_agree(tiles, layout):
    """The tiled builders construct tasks positionally, the flush path and
    tests by keyword: both derive the same runtime lookups."""
    if layout == "mixed":
        accesses = make_access_list(
            reads=[tiles[0]], writes=[tiles[1]], readwrites=[tiles[2]]
        )
    else:
        accesses = make_access_list(reads=[tiles[3], tiles[0]])

    def kernel(*arrays):
        pass

    positional = Task("k", accesses, 10.0, 32, kernel, 0.9)
    keyword = Task(
        name="k", accesses=accesses, flops=10.0, dim=32, kernel=kernel,
        regularity=0.9,
    )
    assert _derived(positional) == _derived(keyword)
    assert positional.access_keys == tuple(a.tile.key for a in accesses)
    assert positional.write_accesses == tuple(a for a in accesses if a.writes)
    anchor = tiles[1] if layout == "mixed" else tiles[3]
    assert positional.output_tile is anchor
    assert positional.kt_shape == (10.0, 32, anchor.wordsize, 0.9)
    for task in (positional, keyword):
        assert (task.priority, task.owner_hint, task.state) == (0, None, "created")
        assert task.successors == [] and not task.submitted
        assert weakref.ref(task)() is task
    assert keyword.uid > positional.uid


def test_priority_and_owner_hint_are_keyword_only(tiles):
    accesses = make_access_list(writes=[tiles[0]])
    task = Task("k", accesses, 1.0, 32, priority=7, owner_hint=2)
    assert (task.priority, task.owner_hint) == (7, 2)
    with pytest.raises(TypeError):
        Task("k", accesses, 1.0, 32, None, 1.0, 7)


@pytest.mark.parametrize(
    "flops, empty, message",
    [(-1.0, False, "negative flops"), (1.0, True, "must access data")],
)
def test_positional_and_keyword_construction_fail_alike(tiles, flops, empty, message):
    accesses = [] if empty else make_access_list(writes=[tiles[0]])
    with pytest.raises(TaskGraphError, match=message) as positional:
        Task("bad", accesses, flops, 8)
    with pytest.raises(TaskGraphError, match=message) as keyword:
        Task(name="bad", accesses=accesses, flops=flops, dim=8)
    assert str(positional.value) == str(keyword.value)


def test_run_numeric_requires_kernel(tiles):
    t = Task(
        name="k",
        accesses=make_access_list(writes=[tiles[0]]),
        flops=1.0,
        dim=32,
    )
    with pytest.raises(TaskGraphError):
        t.run_numeric([np.zeros((2, 2))])


def test_task_uids_monotonic(tiles):
    a = Task(name="a", accesses=make_access_list(writes=[tiles[0]]), flops=1, dim=1)
    b = Task(name="b", accesses=make_access_list(writes=[tiles[0]]), flops=1, dim=1)
    assert b.uid > a.uid


def test_tile_key_identity_and_repr(tiles):
    key = tiles[0].key
    assert key == TileKey(key.matrix_id, 0, 0)
    assert repr(key) == f"T({key.matrix_id}:0,0)"
    assert tiles[0] is not tiles[1]
    assert hash(tiles[0]) != hash(tiles[1])  # identity-hashed handles


def test_tile_geometry(tiles):
    t = tiles[0]
    assert (t.m, t.n, t.wordsize) == (32, 32, 8)
    assert t.nbytes == 32 * 32 * 8
    assert (t.i, t.j) == (0, 0)
