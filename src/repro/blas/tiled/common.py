"""Shared helpers for the tiled algorithm builders."""

from __future__ import annotations

from repro.blas.flops import KERNEL_REGULARITY
from repro.errors import BlasValidationError
from repro.memory.layout import TilePartition
from repro.memory.tile import Tile
from repro.runtime.task import Task
from repro.topology.device import characteristic_dim


#: tiled builders emit thousands of tasks over a handful of distinct tile
#: shapes and kernel names; memoizing the pure derivations keeps the
#: graph-build phase linear in tasks rather than in dimension arithmetic.
_DIM_CACHE: dict[tuple[int, ...], int] = {}
_REGULARITY_CACHE: dict[str, float] = {}


def make_task(
    name: str,
    reads: list[Tile],
    rw: Tile,
    flops: float,
    kernel,
    dims: tuple[int, ...],
) -> Task:
    """Build one tile task: ``reads`` then the output tile accessed RW.

    ``kernel`` is shared: builders create each kernel variant once per call
    and pass the same closure to every task of that variant.  The regularity
    is looked up by ``name.lstrip("dszc")``, which strips a character set,
    not a precision prefix, so ``syrk``, ``symm`` and ``syr2k`` miss their
    table entries and get 1.0 (their Hermitian twins get the table values).
    The golden makespans pin this behaviour.
    """
    accesses = [t.read_access for t in reads]
    accesses.append(rw.rw_access)
    dim = _DIM_CACHE.get(dims)
    if dim is None:
        dim = _DIM_CACHE[dims] = characteristic_dim(*dims)  # det: memo of a pure function
    regularity = _REGULARITY_CACHE.get(name)
    if regularity is None:
        # det: memo of a pure table lookup
        regularity = _REGULARITY_CACHE[name] = KERNEL_REGULARITY.get(
            name.lstrip("dszc"), 1.0
        )
    return Task(name, accesses, flops, dim, kernel, regularity)


def check_same_nb(*partitions: TilePartition) -> int:
    nbs = {p.nb for p in partitions}
    if len(nbs) != 1:
        raise BlasValidationError(f"operand partitions disagree on nb: {sorted(nbs)}")
    return nbs.pop()


def require(cond: bool, message: str) -> None:
    if not cond:
        raise BlasValidationError(message)
