"""Tests for matrices, tile partitions and block-cyclic distributions."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryViewError
from repro.memory.layout import (
    BlockCyclicDistribution,
    TilePartition,
    default_grid,
    layout_conversion_time,
)
from repro.memory.matrix import Matrix


# ------------------------------------------------------------------ matrix


def test_matrix_numeric_and_meta_modes():
    meta = Matrix.meta(100, 50)
    assert not meta.numeric and meta.nbytes == 100 * 50 * 8
    with pytest.raises(MemoryViewError):
        meta.to_array()
    num = Matrix.zeros(10, 10)
    assert num.numeric and num.to_array().flags.f_contiguous


def test_matrix_random_reproducible():
    a = Matrix.random(8, 8, seed=7)
    b = Matrix.random(8, 8, seed=7)
    assert np.array_equal(a.to_array(), b.to_array())


def test_matrix_data_shape_checked():
    with pytest.raises(MemoryViewError):
        Matrix(4, 4, data=np.zeros((3, 4)))
    with pytest.raises(MemoryViewError):
        Matrix(0, 4)


def test_matrix_converts_c_order_to_fortran():
    data = np.arange(12, dtype=float).reshape(3, 4)  # C order
    m = Matrix(3, 4, data=data)
    assert m.to_array().flags.f_contiguous
    assert np.array_equal(m.to_array(), data)


def test_matrix_copy_independent():
    m = Matrix.random(4, 4, seed=1)
    c = m.copy()
    c.to_array()[0, 0] = 99
    assert m.to_array()[0, 0] != 99


def test_matrix_ids_unique():
    assert Matrix.meta(2, 2).id != Matrix.meta(2, 2).id


# --------------------------------------------------------------- partition


def test_partition_even_tiles():
    part = TilePartition(Matrix.meta(128, 64), nb=32)
    assert part.shape == (4, 2)
    assert len(part) == 8
    assert all(t.m == t.n == 32 for t in part)


def test_partition_ragged_border_tiles():
    part = TilePartition(Matrix.meta(100, 70), nb=32)
    assert part.shape == (4, 3)
    assert part[(3, 2)].m == 100 - 3 * 32
    assert part[(3, 2)].n == 70 - 2 * 32


def test_partition_tiles_cover_matrix_without_overlap():
    part = TilePartition(Matrix.meta(100, 70), nb=32)
    total = sum(t.m * t.n for t in part)
    assert total == 100 * 70
    tiles = list(part)
    for i, a in enumerate(tiles):
        for b in tiles[i + 1 :]:
            assert not a.view.overlaps(b.view), (a, b)


def test_partition_invalid_nb():
    with pytest.raises(MemoryViewError):
        TilePartition(Matrix.meta(10, 10), nb=0)


def test_partition_index_errors():
    part = TilePartition(Matrix.meta(64, 64), nb=32)
    with pytest.raises(MemoryViewError):
        part[(2, 0)]


def test_partition_row_col():
    part = TilePartition(Matrix.meta(96, 96), nb=32)
    assert [t.j for t in part.row(1)] == [0, 1, 2]
    assert [t.i for t in part.col(2)] == [0, 1, 2]


def test_tile_host_slice_matches_view():
    mat = Matrix.random(64, 64, seed=3)
    part = TilePartition(mat, nb=32)
    tile = part[(1, 1)]
    rows, cols = tile.host_slice()
    assert (rows.start, cols.start) == (32, 32)
    region = mat.to_array()[rows, cols]
    assert region.shape == (32, 32)


# ------------------------------------------------------------ distribution


def test_block_cyclic_owner_paper_grid():
    dist = BlockCyclicDistribution(4, 2)  # the paper's (4,2) grid
    assert dist.num_devices == 8
    assert dist.owner(0, 0) == 0
    assert dist.owner(0, 1) == 1
    assert dist.owner(1, 0) == 2
    assert dist.owner(4, 2) == 0  # wraps around


def test_block_cyclic_adjacent_tiles_different_gpus():
    """Paper §IV-C: block sizes (1,1) => adjacent blocks on different GPUs."""
    dist = BlockCyclicDistribution(4, 2)
    for i in range(8):
        for j in range(8):
            assert dist.owner(i, j) != dist.owner(i, j + 1)
            assert dist.owner(i, j) != dist.owner(i + 1, j)


def test_block_cyclic_balanced_load_square():
    dist = BlockCyclicDistribution(4, 2)
    part = TilePartition(Matrix.meta(8 * 32, 8 * 32), nb=32)
    load = Counter(dist.owner(t.i, t.j) for t in part)
    assert sorted(load) == list(range(8))
    assert set(load.values()) == {8}  # 64 tiles over 8 devices


def test_block_cyclic_validation():
    with pytest.raises(MemoryViewError):
        BlockCyclicDistribution(0, 2)
    with pytest.raises(MemoryViewError):
        BlockCyclicDistribution(2, 2, block_i=0)


def test_default_grid():
    assert default_grid(8) == (4, 2)
    assert default_grid(4) == (2, 2)
    assert default_grid(6) == (3, 2)
    assert default_grid(1) == (1, 1)
    assert default_grid(7) == (7, 1)


def test_layout_conversion_time():
    assert layout_conversion_time(12e9, host_bandwidth=12e9) == pytest.approx(1.0)
    assert layout_conversion_time(0) == 0.0
    with pytest.raises(MemoryViewError):
        layout_conversion_time(-1)


@settings(deadline=None)
@given(
    st.integers(1, 200),
    st.integers(1, 200),
    st.integers(1, 64),
)
def test_property_partition_covers_exactly(m, n, nb):
    part = TilePartition(Matrix.meta(m, n), nb=nb)
    assert sum(t.m * t.n for t in part) == m * n
    assert part.mt == -(-m // nb) and part.nt == -(-n // nb)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 3), st.integers(1, 3))
def test_property_block_cyclic_owner_in_range(p, q, bi, bj):
    dist = BlockCyclicDistribution(p, q, bi, bj)
    for i in range(12):
        for j in range(12):
            assert 0 <= dist.owner(i, j) < p * q
