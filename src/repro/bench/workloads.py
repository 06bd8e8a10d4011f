"""Workload generation for the experiments.

Builds the perf-mode (metadata-only) operand matrices of each routine and
defines the matrix-dimension sweeps of the paper's figures.
"""

from __future__ import annotations

from repro.blas.routines import ROUTINES
from repro.errors import BenchmarkError
from repro.memory.matrix import Matrix

#: The paper sweeps square matrices from ~4096 up to ~65536 (Figs. 3-5, 8).
FULL_SIZES = (4096, 8192, 12288, 16384, 20480, 24576, 32768, 40960, 49152)
#: Reduced sweep used by the pytest benchmarks and ``--fast`` CLI runs.
FAST_SIZES = (10240, 16384, 32768)


def paper_sizes(fast: bool = False) -> tuple[int, ...]:
    return FAST_SIZES if fast else FULL_SIZES


def matrices_for(routine: str, n: int) -> dict[str, Matrix]:
    """Square ``n``×``n`` metadata operands of one routine invocation, keyed
    by the BLAS names of its routine-table row (the written operand last)."""
    try:
        row = ROUTINES[routine.lower()]
    except KeyError:
        raise BenchmarkError(f"unknown routine {routine!r}") from None
    return {operand: Matrix.meta(n, n, name=operand.upper()) for operand in row.operands}
