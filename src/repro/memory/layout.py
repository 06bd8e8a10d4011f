"""Matrix layouts, tiling and distributions.

Three layout-related facilities:

* :class:`TilePartition` — cut a LAPACK-layout matrix into ``nb × nb`` blocks
  (border blocks may be smaller), producing :class:`~repro.memory.tile.Tile`
  handles whose views share the host allocation (the paper's sub-matrix
  representation, §III).
* :class:`BlockCyclicDistribution` — the ScaLAPACK-style 2D block-cyclic
  mapping used by the data-on-device experiments (§IV-C: a (4,2) GPU grid with
  cyclic block sizes (1,1)).
* :func:`layout_conversion_time` — the host-side cost of converting between
  LAPACK and tile layouts, which is the documented penalty of Chameleon's
  LAPACK interface (§IV-D).
"""

from __future__ import annotations

import dataclasses
import math

from repro import config
from repro.errors import MemoryViewError
from repro.memory.matrix import Matrix
from repro.memory.tile import Tile, TileKey


class TilePartition:
    """A matrix cut into blocks of at most ``nb × nb`` elements.

    Block ``(i, j)`` covers rows ``[i*nb, min((i+1)*nb, m))`` and the analogous
    column range.  Tiles are created eagerly (the count is ``mt * nt``, small
    compared to the data) and indexed by ``partition[i, j]``.
    """

    def __init__(self, matrix: Matrix, nb: int) -> None:
        if nb <= 0:
            raise MemoryViewError(f"tile size must be positive, got {nb}")
        self.matrix = matrix
        self.nb = nb
        self.mt = math.ceil(matrix.m / nb)  # tile rows
        self.nt = math.ceil(matrix.n / nb)  # tile cols
        self._tiles: dict[tuple[int, int], Tile] = {}
        for i in range(self.mt):
            for j in range(self.nt):
                row, col = i * nb, j * nb
                tm = min(nb, matrix.m - row)
                tn = min(nb, matrix.n - col)
                view = matrix.view.subview(row, col, tm, tn)
                key = TileKey(matrix.id, i, j)
                self._tiles[(i, j)] = Tile(key=key, view=view, matrix=matrix)

    def __getitem__(self, ij: tuple[int, int]) -> Tile:
        try:
            return self._tiles[ij]
        except KeyError:
            raise MemoryViewError(
                f"tile {ij} outside partition {self.mt}x{self.nt}"
            ) from None

    def __iter__(self):
        return iter(self._tiles.values())

    def __len__(self) -> int:
        return self.mt * self.nt

    @property
    def shape(self) -> tuple[int, int]:
        return (self.mt, self.nt)

    def row(self, i: int) -> list[Tile]:
        return [self._tiles[(i, j)] for j in range(self.nt)]

    def col(self, j: int) -> list[Tile]:
        return [self._tiles[(i, j)] for i in range(self.mt)]


@dataclasses.dataclass(frozen=True, slots=True)
class BlockCyclicDistribution:
    """ScaLAPACK-style 2D block-cyclic tile→device mapping.

    Parameters
    ----------
    grid_p, grid_q:
        Device grid dimensions; the paper's data-on-device experiments use a
        ``(4, 2)`` grid over 8 GPUs.
    block_i, block_j:
        Cyclic block sizes in *tiles*; the paper uses ``(1, 1)`` so adjacent
        tiles land on different GPUs.
    """

    grid_p: int
    grid_q: int
    block_i: int = 1
    block_j: int = 1

    def __post_init__(self) -> None:
        if self.grid_p <= 0 or self.grid_q <= 0:
            raise MemoryViewError("grid dimensions must be positive")
        if self.block_i <= 0 or self.block_j <= 0:
            raise MemoryViewError("cyclic block sizes must be positive")

    @property
    def num_devices(self) -> int:
        return self.grid_p * self.grid_q

    def owner(self, i: int, j: int) -> int:
        """Device id owning tile ``(i, j)``.

        Devices are numbered row-major over the ``(p, q)`` grid.
        """
        p = (i // self.block_i) % self.grid_p
        q = (j // self.block_j) % self.grid_q
        return p * self.grid_q + q


def default_grid(num_devices: int) -> tuple[int, int]:
    """The most-square ``(p, q)`` grid with ``p >= q`` covering all devices.

    For 8 devices this yields the paper's ``(4, 2)`` grid.
    """
    q = int(math.isqrt(num_devices))
    while q > 1 and num_devices % q != 0:
        q -= 1
    return (num_devices // q, q)


def layout_conversion_time(
    nbytes: int, host_bandwidth: float = config.HOST_MEMCPY_BW
) -> float:
    """Host time to convert a matrix between LAPACK and tile layouts.

    Chameleon's LAPACK interface copies every operand to the internal tile
    layout before the computation and copies results back after it; the paper
    identifies this host-side conversion as the cause of Chameleon-LAPACK's
    last-place performance (§IV-D).  The conversion is a strided memcpy over
    the whole matrix, modelled at host copy bandwidth.
    """
    if nbytes < 0:
        raise MemoryViewError(f"negative byte count {nbytes}")
    return nbytes / host_bandwidth
