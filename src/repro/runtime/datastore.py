"""Numeric-mode data store.

Holds the NumPy arrays behind every replica location.  Host tiles are views
into the owning matrix's Fortran-ordered array (LAPACK layout, zero copy);
device replicas are compacted dense arrays, exactly the paper's §III-A
behaviour where ``cudaMemcpy2D`` compacts a sub-matrix to ``ld == m`` form on
the GPU.

In perf mode (metadata-only matrices) every operation is a cheap no-op, so the
runtime code path stays identical between modes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CoherenceError
from repro.memory.tile import Tile, TileKey
from repro.topology.link import HOST


class DataStore:
    """Array storage for device replicas + host write-back."""

    def __init__(self) -> None:
        self._device_arrays: dict[tuple[int, TileKey], np.ndarray] = {}
        self._tiles: dict[TileKey, Tile] = {}
        self._matrix_index: dict[int, int] = {}

    def register(self, tile: Tile) -> None:
        """Make a tile known (idempotent)."""
        self._tiles.setdefault(tile.key, tile)
        mid = tile.key.matrix_id
        if mid not in self._matrix_index:
            self._matrix_index[mid] = len(self._matrix_index)

    def matrix_index(self, matrix_id: int) -> int:
        """Dense run-local index of a matrix, in tile-registration order.

        ``Matrix.id`` is a process-global counter, so its absolute value
        depends on how many matrices existed before this run; any simulated
        decision derived from it (the no-topo pseudo-random source pick)
        would make a run's outcome depend on process history.  Registration
        order is a pure function of the submitted task graph, so this index
        is what decision code must mix instead.  Only registered matrices
        have one: a ``KeyError`` here is a transfer decision taken before its
        tile was registered.
        """
        return self._matrix_index[matrix_id]

    def tile(self, key: TileKey) -> Tile:
        return self._tiles[key]

    @staticmethod
    def _numeric(tile: Tile) -> bool:
        return tile.matrix.numeric

    # ---------------------------------------------------------------- access

    def host_view(self, tile: Tile) -> np.ndarray:
        """The host array region of a tile (a view, never a copy)."""
        rows, cols = tile.host_slice()
        return tile.matrix.to_array()[rows, cols]

    def device_array(self, device: int, key: TileKey) -> np.ndarray:
        try:
            return self._device_arrays[(device, key)]
        except KeyError:
            raise CoherenceError(f"no array for {key} on device {device}") from None

    # -------------------------------------------------------------- movement

    def copy_tile(self, tile: Tile, src: int, dst: int) -> None:
        """Materialize the replica movement ``src -> dst`` for one tile.

        No-op in perf mode.  Host -> device compacts the LAPACK view into a
        dense array; device -> host scatters it back into the matrix.
        """
        if not tile.matrix.numeric:
            # Perf mode: nothing to move, and the tile was already registered
            # when its transfer was issued — skip the idempotent re-register
            # on this per-completion-event path.
            return
        self.register(tile)
        if src == dst:
            return
        if src == HOST:
            self._device_arrays[(dst, tile.key)] = np.asfortranarray(
                self.host_view(tile).copy()
            )
        elif dst == HOST:
            self.host_view(tile)[...] = self.device_array(src, tile.key)
        else:
            self._device_arrays[(dst, tile.key)] = self.device_array(
                src, tile.key
            ).copy(order="F")

    def allocate_device_tile(self, tile: Tile, device: int) -> None:
        """Allocate an (uninitialized) output array for a WRITE-only access."""
        self.register(tile)
        if not self._numeric(tile):
            return
        key = (device, tile.key)
        if key not in self._device_arrays:
            dtype = tile.matrix.to_array().dtype
            self._device_arrays[key] = np.zeros((tile.m, tile.n), dtype=dtype, order="F")

    def drop_device_tile(self, key: TileKey, device: int) -> None:
        """Free the device array on eviction/invalidation (idempotent)."""
        self._device_arrays.pop((device, key), None)

    def arrays_for(self, device: int, tiles: list[Tile]) -> list[np.ndarray]:
        """Device arrays of a task's accesses, in declaration order."""
        return [self.device_array(device, t.key) for t in tiles]

    # ------------------------------------------------------------ inspection

    def __len__(self) -> int:
        return len(self._device_arrays)
