"""Host matrices.

A :class:`Matrix` is a host allocation in LAPACK (column-major) layout with an
optional NumPy backing array.  With an array attached the stack runs in
*numeric mode* (kernels really compute, results are checkable); without one it
runs in *perf mode* (metadata-only, used for paper-scale sweeps where a single
49152² FP64 matrix would need 19 GB).  Both modes flow through identical
runtime code (DESIGN.md §4).
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.errors import MemoryViewError
from repro.memory.view import MemoryView

_matrix_ids = itertools.count()


class Matrix:
    """A host matrix in LAPACK layout.

    Parameters
    ----------
    m, n:
        Dimensions.
    wordsize:
        Element width in bytes (8 for float64), sizing the matrix's bytes;
        ignored when ``data`` is given (taken from the dtype).
    data:
        Optional backing array; converted to Fortran order if needed, since
        LAPACK layout is column-major.
    name:
        Label used in task/trace rendering ("A", "B", "C"...).
    """

    def __init__(
        self,
        m: int,
        n: int,
        wordsize: int = 8,
        data: np.ndarray | None = None,
        name: str = "",
    ) -> None:
        if m <= 0 or n <= 0:
            raise MemoryViewError(f"matrix dimensions must be positive: ({m}, {n})")
        # Process-global by design: `id` is a debug identity, and every
        # decision path launders it through the run-local
        # DataStore.matrix_index() translation (enforced by lint rule D106).
        self.id = next(_matrix_ids)  # det: laundered via matrix_index
        self.m = m
        self.n = n
        self.name = name or f"M{self.id}"
        if data is not None:
            if data.shape != (m, n):
                raise MemoryViewError(
                    f"data shape {data.shape} does not match matrix ({m}, {n})"
                )
            if not data.flags.f_contiguous or not data.flags.writeable:
                data = np.asfortranarray(data).copy(order="F")
            self.data: np.ndarray | None = data
            self.wordsize = data.dtype.itemsize
        else:
            self.data = None
            self.wordsize = wordsize
        self.view = MemoryView(m=m, n=n, ld=m, wordsize=self.wordsize)

    # ---------------------------------------------------------- constructors

    @classmethod
    def zeros(cls, m: int, n: int, dtype=np.float64, name: str = "") -> "Matrix":
        """A numeric-mode matrix of zeros."""
        return cls(m, n, data=np.zeros((m, n), dtype=dtype, order="F"), name=name)

    @classmethod
    def random(
        cls, m: int, n: int, dtype=np.float64, seed: int | None = None, name: str = ""
    ) -> "Matrix":
        """A numeric-mode matrix of uniform random values in [-1, 1)."""
        rng = np.random.default_rng(seed)
        data = np.asfortranarray((rng.random((m, n)) * 2 - 1).astype(dtype))
        return cls(m, n, data=data, name=name)

    @classmethod
    def meta(cls, m: int, n: int, wordsize: int = 8, name: str = "") -> "Matrix":
        """A perf-mode (metadata-only) matrix."""
        return cls(m, n, wordsize=wordsize, name=name)

    # -------------------------------------------------------------- behavior

    @property
    def numeric(self) -> bool:
        """True when a NumPy array backs this matrix."""
        return self.data is not None

    @property
    def nbytes(self) -> int:
        return self.m * self.n * self.wordsize

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    def to_array(self) -> np.ndarray:
        """The backing array (numeric mode only)."""
        if self.data is None:
            raise MemoryViewError(f"matrix {self.name} is metadata-only (perf mode)")
        return self.data

    def copy(self, name: str = "") -> "Matrix":
        """Deep copy (numeric) or same-shape clone (perf mode)."""
        if self.data is not None:
            return Matrix(self.m, self.n, data=self.data.copy(order="F"), name=name)
        return Matrix.meta(self.m, self.n, self.wordsize, name=name)

    def __repr__(self) -> str:
        mode = "numeric" if self.numeric else "meta"
        return f"Matrix({self.name}, {self.m}x{self.n}, {mode})"
