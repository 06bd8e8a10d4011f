"""The routine table: one row per BLAS-3 routine of the paper (§IV-D).

A row says everything a caller needs to run one routine call: its tiled
task-graph builder, the BLAS names of its matrix arguments (the written one
last), the parameters the paper's experiments pass (FP64, lower, left side,
no transpose, ``alpha=1``, ``beta=0``) and its standard flop count.  The
simulated libraries, the benchmark harness and ``repro.verify`` all build
calls from this table, so a routine is described once.
"""

from __future__ import annotations

import dataclasses
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

from repro.blas import flops as fl
from repro.blas.params import Diag, Side, Trans, Uplo
from repro.blas.tiled import (
    build_gemm,
    build_hemm,
    build_her2k,
    build_herk,
    build_symm,
    build_syr2k,
    build_syrk,
    build_trmm,
    build_trsm,
)
from repro.memory.matrix import Matrix
from repro.runtime.task import Task


@dataclasses.dataclass(frozen=True)
class Routine:
    """One BLAS-3 routine: how a call is built, read, defaulted and costed.

    ``build`` and ``flops`` take the call's arguments by their BLAS names
    (``flops`` ignores the ones its count does not read); ``operands`` name
    the matrix arguments, the written one last.
    """

    build: Callable[..., Iterator[Task]]
    operands: tuple[str, ...]
    defaults: Mapping[str, object]
    flops: Callable[..., float]


def _inner(a: Matrix, trans: Trans) -> int:
    return a.n if trans is Trans.NOTRANS else a.m


def _gemm_flops(a: Matrix, c: Matrix, transa: Trans = Trans.NOTRANS, **_) -> float:
    return fl.gemm_flops(c.m, c.n, _inner(a, transa))


def _symm_flops(side: Side, c: Matrix, **_) -> float:
    return fl.symm_flops(side is Side.LEFT, c.m, c.n)


def _syrk_flops(trans: Trans, a: Matrix, c: Matrix, **_) -> float:
    return fl.syrk_flops(c.n, _inner(a, trans))


def _syr2k_flops(trans: Trans, a: Matrix, c: Matrix, **_) -> float:
    return fl.syr2k_flops(c.n, _inner(a, trans))


def _trmm_flops(side: Side, b: Matrix, **_) -> float:
    return fl.trmm_flops(side is Side.LEFT, b.m, b.n)


def _trsm_flops(side: Side, b: Matrix, **_) -> float:
    return fl.trsm_flops(side is Side.LEFT, b.m, b.n)


_GEMM_ARGS = MappingProxyType(
    {"alpha": 1.0, "beta": 0.0, "transa": Trans.NOTRANS, "transb": Trans.NOTRANS}
)
_SYMM_ARGS = MappingProxyType(
    {"side": Side.LEFT, "uplo": Uplo.LOWER, "alpha": 1.0, "beta": 0.0}
)
_RANK_K_ARGS = MappingProxyType(
    {"uplo": Uplo.LOWER, "trans": Trans.NOTRANS, "alpha": 1.0, "beta": 0.0}
)
_TRIANGULAR_ARGS = MappingProxyType({
    "side": Side.LEFT,
    "uplo": Uplo.LOWER,
    "transa": Trans.NOTRANS,
    "diag": Diag.NONUNIT,
    "alpha": 1.0,
})

#: The paper's "9 standard BLAS subroutines" (§IV-D): the six of Fig. 5,
#: then the Hermitian versions of SYMM, SYR2K and SYRK.
ROUTINES: dict[str, Routine] = {
    "gemm": Routine(build_gemm, ("a", "b", "c"), _GEMM_ARGS, _gemm_flops),
    "symm": Routine(build_symm, ("a", "b", "c"), _SYMM_ARGS, _symm_flops),
    "syr2k": Routine(build_syr2k, ("a", "b", "c"), _RANK_K_ARGS, _syr2k_flops),
    "syrk": Routine(build_syrk, ("a", "c"), _RANK_K_ARGS, _syrk_flops),
    "trmm": Routine(build_trmm, ("a", "b"), _TRIANGULAR_ARGS, _trmm_flops),
    "trsm": Routine(build_trsm, ("a", "b"), _TRIANGULAR_ARGS, _trsm_flops),
    "hemm": Routine(build_hemm, ("a", "b", "c"), _SYMM_ARGS, _symm_flops),
    "her2k": Routine(build_her2k, ("a", "b", "c"), _RANK_K_ARGS, _syr2k_flops),
    "herk": Routine(build_herk, ("a", "c"), _RANK_K_ARGS, _syrk_flops),
}
