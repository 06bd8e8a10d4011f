"""Workload generation for the experiments.

Builds the operand matrices of each routine (perf-mode metadata by default,
numeric NumPy matrices for validation runs) and defines the matrix-dimension
sweeps of the paper's figures.
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


def matrices_for(
    routine: str,
    n: int,
    numeric: bool = False,
    seed: int = 0,
) -> dict[str, Matrix]:
    """Square ``n``×``n`` operands of one routine invocation, keyed by the
    BLAS names of its routine-table row (the written operand last).

    Numeric mode fills them with seeded random values; a triangular
    routine's (TRMM/TRSM: the ones with a ``diag`` parameter) ``a`` is made
    diagonally dominant so its solves stay well conditioned.
    """
    try:
        row = ROUTINES[routine.lower()]
    except KeyError:
        raise BenchmarkError(f"unknown routine {routine!r}") from None
    mats = {}
    for operand in row.operands:
        name = operand.upper()
        if not numeric:
            mats[operand] = Matrix.meta(n, n, name=name)
            continue
        mat = Matrix.random(n, n, seed=seed + ord(name), name=name)
        if operand == "a" and "diag" in row.defaults:
            arr = mat.to_array()
            arr += arr.T.copy()
            arr[range(n), range(n)] += n  # diagonally dominant
        mats[operand] = mat
    return mats
