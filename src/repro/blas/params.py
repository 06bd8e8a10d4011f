"""BLAS parameter enums (side, uplo, transpose, diagonal)."""

from __future__ import annotations

import enum


class Side(enum.Enum):
    """Which side the triangular/symmetric operand multiplies from."""

    LEFT = "L"
    RIGHT = "R"


class Uplo(enum.Enum):
    """Which triangle of a symmetric/triangular matrix is referenced."""

    LOWER = "L"
    UPPER = "U"

    @property
    def other(self) -> "Uplo":
        return Uplo.UPPER if self is Uplo.LOWER else Uplo.LOWER


class Trans(enum.Enum):
    """Operand transposition."""

    NOTRANS = "N"
    TRANS = "T"
    CONJTRANS = "C"


class Diag(enum.Enum):
    """Whether the triangular matrix has an implicit unit diagonal."""

    NONUNIT = "N"
    UNIT = "U"
