"""Tests for the numeric-mode data store."""

import numpy as np
import pytest

from repro.errors import CoherenceError
from repro.memory.layout import TilePartition
from repro.memory.matrix import Matrix
from repro.runtime.datastore import DataStore
from repro.topology.link import HOST


@pytest.fixture()
def store_and_tiles():
    mat = Matrix.random(64, 64, seed=1)
    part = TilePartition(mat, 32)
    store = DataStore()
    for t in part:
        store.register(t)
    return store, part, mat


def test_matrix_index_counts_registered_matrices_only(store_and_tiles):
    store, part, mat = store_and_tiles
    other = TilePartition(Matrix.meta(64, 64), 32)
    store.register(other[(0, 0)])
    assert store.matrix_index(mat.id) == 0
    assert store.matrix_index(other.matrix.id) == 1
    # An unregistered matrix has no run-local index; its process-global id
    # must not stand in for one.
    with pytest.raises(KeyError):
        store.matrix_index(Matrix.meta(8, 8).id)


def test_host_view_is_a_view(store_and_tiles):
    store, part, mat = store_and_tiles
    view = store.host_view(part[(0, 0)])
    view[0, 0] = 123.0
    assert mat.to_array()[0, 0] == 123.0


def test_h2d_copy_compacts_and_detaches(store_and_tiles):
    store, part, mat = store_and_tiles
    tile = part[(1, 0)]
    store.copy_tile(tile, HOST, 0)
    arr = store.device_array(0, tile.key)
    assert arr.shape == (32, 32)
    assert arr.flags.f_contiguous
    np.testing.assert_array_equal(arr, store.host_view(tile))
    arr[0, 0] = -1.0
    assert mat.to_array()[32, 0] != -1.0  # device copy is detached


def test_d2h_scatters_back(store_and_tiles):
    store, part, mat = store_and_tiles
    tile = part[(0, 1)]
    store.copy_tile(tile, HOST, 2)
    store.device_array(2, tile.key)[...] = 9.0
    store.copy_tile(tile, 2, HOST)
    assert np.all(mat.to_array()[:32, 32:] == 9.0)
    assert np.all(mat.to_array()[:32, :32] != 9.0)


def test_p2p_copy(store_and_tiles):
    store, part, _ = store_and_tiles
    tile = part[(0, 0)]
    store.copy_tile(tile, HOST, 0)
    store.copy_tile(tile, 0, 1)
    np.testing.assert_array_equal(
        store.device_array(0, tile.key), store.device_array(1, tile.key)
    )


def test_missing_array_raises(store_and_tiles):
    store, part, _ = store_and_tiles
    with pytest.raises(CoherenceError):
        store.device_array(5, part[(0, 0)].key)


def test_perf_mode_is_noop():
    mat = Matrix.meta(64, 64)
    part = TilePartition(mat, 32)
    store = DataStore()
    tile = part[(0, 0)]
    store.copy_tile(tile, HOST, 0)
    assert len(store) == 0
    store.allocate_device_tile(tile, 0)
    assert len(store) == 0


def test_allocate_output_zeros(store_and_tiles):
    store, part, _ = store_and_tiles
    tile = part[(1, 1)]
    store.allocate_device_tile(tile, 3)
    arr = store.device_array(3, tile.key)
    assert np.all(arr == 0.0) and arr.shape == (32, 32)
    # Idempotent: does not clobber existing data.
    arr[...] = 4.0
    store.allocate_device_tile(tile, 3)
    assert np.all(store.device_array(3, tile.key) == 4.0)


def test_drop_device_tile(store_and_tiles):
    store, part, _ = store_and_tiles
    tile = part[(0, 0)]
    store.copy_tile(tile, HOST, 0)
    store.drop_device_tile(tile.key, 0)
    with pytest.raises(CoherenceError):
        store.device_array(0, tile.key)
    store.drop_device_tile(tile.key, 0)  # idempotent


def test_device_bytes_accounting(store_and_tiles):
    store, part, _ = store_and_tiles
    tiles = (part[(0, 0)], part[(0, 1)])
    for tile in tiles:
        store.copy_tile(tile, HOST, 0)
    assert len(store) == 2
    assert sum(store.device_array(0, t.key).nbytes for t in tiles) == 2 * 32 * 32 * 8
    with pytest.raises(CoherenceError):
        store.device_array(1, tiles[0].key)


def test_arrays_for_order(store_and_tiles):
    store, part, _ = store_and_tiles
    t1, t2 = part[(0, 0)], part[(1, 1)]
    store.copy_tile(t1, HOST, 0)
    store.copy_tile(t2, HOST, 0)
    arrays = store.arrays_for(0, [t2, t1])
    assert arrays[0] is store.device_array(0, t2.key)
    assert arrays[1] is store.device_array(0, t1.key)
