"""LAPACK memory views.

The paper (§III-A) describes every CPU tile as "a memory region starting at
address A with its description given by the tuple ``(m, n, ld, wordsize)``".
:class:`MemoryView` is that tuple plus an element offset standing in for the
address.  Sub-matrices keep the same representation after decomposition
(column-major with a leading dimension), and once copied to a GPU the view is
compacted to ``(m, n, m, wordsize)`` — a dense tile.
"""

from __future__ import annotations

import dataclasses

from repro.errors import MemoryViewError


@dataclasses.dataclass(frozen=True, slots=True)
class MemoryView:
    """A column-major sub-matrix view: ``(m, n, ld, wordsize)`` at ``offset``.

    Attributes
    ----------
    m, n:
        Row and column counts of the viewed region.
    ld:
        Leading dimension (rows of the underlying allocation); ``ld >= m``.
    wordsize:
        Bytes per element (8 for FP64).
    offset:
        Element offset of the first entry inside the underlying allocation,
        i.e. the ``A + offset*wordsize`` address of the paper's tuple.
    """

    m: int
    n: int
    ld: int
    wordsize: int = 8
    offset: int = 0

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise MemoryViewError(f"negative dimensions ({self.m}, {self.n})")
        if self.ld < max(self.m, 1):
            raise MemoryViewError(f"ld={self.ld} < m={self.m}")
        if self.wordsize <= 0:
            raise MemoryViewError(f"wordsize must be positive, got {self.wordsize}")
        if self.offset < 0:
            raise MemoryViewError(f"negative offset {self.offset}")

    # ------------------------------------------------------------- geometry

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    @property
    def nelems(self) -> int:
        """Number of elements actually viewed (not counting the ld padding)."""
        return self.m * self.n

    @property
    def payload_bytes(self) -> int:
        """Bytes of useful data, i.e. what a 2D memcpy moves."""
        return self.nelems * self.wordsize

    @property
    def span_bytes(self) -> int:
        """Bytes of the contiguous span covering the view, including padding."""
        if self.n == 0 or self.m == 0:
            return 0
        return ((self.n - 1) * self.ld + self.m) * self.wordsize

    # ----------------------------------------------------------- operations

    def subview(self, row: int, col: int, m: int, n: int) -> "MemoryView":
        """View the ``m × n`` sub-matrix starting at element ``(row, col)``.

        This is the "sub-matrix representation using LAPACK data layout" the
        paper uses in place of tile copies: the result shares the allocation
        (same ``ld``), only the offset moves.
        """
        if row < 0 or col < 0 or row + m > self.m or col + n > self.n:
            raise MemoryViewError(
                f"subview ({row}+{m}, {col}+{n}) escapes view of shape {self.shape}"
            )
        return MemoryView(
            m=m,
            n=n,
            ld=self.ld,
            wordsize=self.wordsize,
            offset=self.offset + col * self.ld + row,
        )

    def overlaps(self, other: "MemoryView") -> bool:
        """Conservative column-range overlap test for views of one allocation.

        Two views overlap if any column-strip intersects; used to validate
        that tiles of a partition are disjoint.
        """
        if self.nelems == 0 or other.nelems == 0:
            return False
        if self.ld != other.ld:
            # Different allocations (or incompatible reshapes): compare spans.
            a0, a1 = self.offset, self.offset + self.span_bytes // self.wordsize
            b0, b1 = other.offset, other.offset + other.span_bytes // other.wordsize
            return a0 < b1 and b0 < a1
        ld = self.ld
        arow, acol = self.offset % ld, self.offset // ld
        brow, bcol = other.offset % ld, other.offset // ld
        rows_meet = arow < brow + other.m and brow < arow + self.m
        cols_meet = acol < bcol + other.n and bcol < acol + self.n
        return rows_meet and cols_meet

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryView(m={self.m}, n={self.n}, ld={self.ld}, "
            f"ws={self.wordsize}, off={self.offset})"
        )
