"""Numeric tile kernels.

NumPy implementations of the BLAS-3 tile kernels with faithful reference
semantics: symmetric/Hermitian updates touch only the stored triangle,
triangular kernels reference only the stored triangle and honour unit
diagonals, everything updates in place (Fortran-ordered device arrays).

Each ``k_*`` factory captures the scalar parameters and returns a closure over
the device arrays in task access order — the executor calls it at kernel
completion in numeric mode.  In perf mode the closures are never invoked, so
a tiled builder creates each variant (one set of scalars, such as a chain
head's ``beta`` versus an accumulator's 1.0) once per call, before its loops,
and every task of that variant shares the closure: a closure per task is
memory a perf-mode run holds and never reads.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.blas.params import Diag, Side, Trans, Uplo
from repro.errors import BlasValidationError

Kernel = Callable[..., None]


def _op(x: np.ndarray, trans: Trans) -> np.ndarray:
    if trans is Trans.NOTRANS:
        return x
    if trans is Trans.TRANS:
        return x.T
    return x.conj().T


def _tri(a: np.ndarray, uplo: Uplo, diag: Diag) -> np.ndarray:
    """The referenced triangle of ``a`` as a dense array (unit diag applied)."""
    t = np.tril(a) if uplo is Uplo.LOWER else np.triu(a)
    if diag is Diag.UNIT:
        np.fill_diagonal(t, 1.0)
    return t


def _sym(a: np.ndarray, uplo: Uplo, hermitian: bool = False) -> np.ndarray:
    """Expand the stored triangle of ``a`` to a full symmetric/Hermitian matrix."""
    if uplo is Uplo.LOWER:
        lower = np.tril(a)
        upper = np.tril(a, -1).conj().T if hermitian else np.tril(a, -1).T
        full = lower + upper
    else:
        upper = np.triu(a)
        lower = np.triu(a, 1).conj().T if hermitian else np.triu(a, 1).T
        full = upper + lower
    if hermitian:
        # Imaginary parts of the diagonal are assumed zero per BLAS.
        idx = np.diag_indices_from(full)
        full[idx] = full[idx].real
    return full


def _store_triangle(c: np.ndarray, full: np.ndarray, uplo: Uplo) -> None:
    """Write only the ``uplo`` triangle of ``full`` into ``c``."""
    idx = np.tril_indices_from(c) if uplo is Uplo.LOWER else np.triu_indices_from(c)
    c[idx] = full[idx]


def _solve_triangular(
    a: np.ndarray, b: np.ndarray, uplo: Uplo, trans: Trans, diag: Diag
) -> np.ndarray:
    """Solve ``op(tri(a)) X = b`` densely (NumPy-only substrate)."""
    t = _op(_tri(a, uplo, diag), trans)
    return np.linalg.solve(t, b)


# --------------------------------------------------------------------- GEMM


def k_gemm(
    alpha: float,
    beta: float,
    transa: Trans = Trans.NOTRANS,
    transb: Trans = Trans.NOTRANS,
) -> Kernel:
    """``c = alpha op(a) op(b) + beta c`` over arrays ``(a, b, c)``."""

    def kernel(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        c[...] = alpha * (_op(a, transa) @ _op(b, transb)) + beta * c

    return kernel


# --------------------------------------------------------------- SYMM/HEMM


def k_symm(
    side: Side, uplo: Uplo, alpha: float, beta: float, hermitian: bool = False
) -> Kernel:
    """``c = alpha sym(a) b + beta c`` (left) or ``alpha b sym(a) + beta c``."""

    def kernel(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        full = _sym(a, uplo, hermitian)
        if side is Side.LEFT:
            c[...] = alpha * (full @ b) + beta * c
        else:
            c[...] = alpha * (b @ full) + beta * c

    return kernel


# --------------------------------------------------------------- SYRK/HERK


def k_syrk(
    uplo: Uplo, trans: Trans, alpha: float, beta: float, hermitian: bool = False
) -> Kernel:
    """Rank-k update of the stored triangle: ``c = alpha op(a) op(a)ᵀ + beta c``."""

    def kernel(a: np.ndarray, c: np.ndarray) -> None:
        at = _op(a, trans)
        other = at.conj().T if hermitian else at.T
        full = alpha * (at @ other) + beta * c
        _store_triangle(c, full, uplo)

    return kernel


# ------------------------------------------------------------- SYR2K/HER2K


def k_syr2k(
    uplo: Uplo, trans: Trans, alpha: float, beta: float, hermitian: bool = False
) -> Kernel:
    """Rank-2k update: ``c = alpha op(a) op(b)ᵀ + conj(alpha) op(b) op(a)ᵀ + beta c``."""

    def kernel(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        at, bt = _op(a, trans), _op(b, trans)
        if hermitian:
            full = alpha * (at @ bt.conj().T) + np.conj(alpha) * (bt @ at.conj().T)
        else:
            full = alpha * (at @ bt.T) + alpha * (bt @ at.T)
        full = full + beta * c
        _store_triangle(c, full, uplo)

    return kernel


# --------------------------------------------------------------------- TRMM


def k_trmm(
    side: Side, uplo: Uplo, transa: Trans, diag: Diag, alpha: float
) -> Kernel:
    """In-place triangular multiply over ``(a, b)``: ``b = alpha op(tri(a)) b``."""

    def kernel(a: np.ndarray, b: np.ndarray) -> None:
        t = _op(_tri(a, uplo, diag), transa)
        if side is Side.LEFT:
            b[...] = alpha * (t @ b)
        else:
            b[...] = alpha * (b @ t)

    return kernel


# --------------------------------------------------------------------- TRSM


def k_trsm(
    side: Side, uplo: Uplo, transa: Trans, diag: Diag, alpha: float
) -> Kernel:
    """In-place triangular solve over ``(a, b)``: ``op(tri(a)) X = alpha b``."""

    def kernel(a: np.ndarray, b: np.ndarray) -> None:
        if side is Side.LEFT:
            b[...] = _solve_triangular(a, alpha * b, uplo, transa, diag)
        else:
            # X op(tri(a)) = alpha b  <=>  op(tri(a))ᵀ Xᵀ = alpha bᵀ
            t = _op(_tri(a, uplo, diag), transa)
            b[...] = np.linalg.solve(t.T, (alpha * b).T).T

    return kernel


# -------------------------------------------------------------------- POTRF


def k_potrf(uplo: Uplo) -> Kernel:
    """In-place Cholesky factorization of a diagonal tile.

    Lower: ``a := L`` with ``L Lᵀ = sym(a)``; upper: ``a := U`` with
    ``Uᵀ U = sym(a)``.  Only the stored triangle is referenced or written,
    like LAPACK's ``potrf``.
    """

    def kernel(a: np.ndarray) -> None:
        full = _sym(a, uplo, hermitian=np.iscomplexobj(a))
        chol = np.linalg.cholesky(full)  # lower factor
        if uplo is Uplo.LOWER:
            _store_triangle(a, chol, Uplo.LOWER)
        else:
            _store_triangle(a, chol.conj().T, Uplo.UPPER)

    return kernel


# -------------------------------------------------------------------- TRTRI


def k_trtri(uplo: Uplo, diag: Diag) -> Kernel:
    """In-place inversion of a triangular diagonal tile.

    Only the stored triangle is referenced/written; a unit-diagonal input
    yields a unit-diagonal inverse whose ones are implicit, as in LAPACK.
    """

    def kernel(a: np.ndarray) -> None:
        t = _tri(a, uplo, diag)
        inv = np.linalg.inv(t)
        if diag is Diag.UNIT:
            np.fill_diagonal(inv, 1.0)  # implicit unit diagonal stays implicit
        _store_triangle(a, inv, uplo)

    return kernel


# -------------------------------------------------------------------- LAUUM


def k_lauum(uplo: Uplo) -> Kernel:
    """Diagonal-tile LAUUM: ``a := tril(a)ᴴ tril(a)`` (lower) or
    ``triu(a) triu(a)ᴴ`` (upper), stored in the ``uplo`` triangle."""

    def kernel(a: np.ndarray) -> None:
        if uplo is Uplo.LOWER:
            t = np.tril(a)
            full = t.conj().T @ t
        else:
            t = np.triu(a)
            full = t @ t.conj().T
        _store_triangle(a, full, uplo)

    return kernel


# ------------------------------------------------------------- GETRF-nopiv


def _lu_nopivot(a: np.ndarray) -> np.ndarray:
    """Dense LU without pivoting; returns the packed L\\U factor."""
    lu = np.array(a, dtype=a.dtype, order="F")
    n = lu.shape[0]
    for k in range(n - 1):
        pivot = lu[k, k]
        if pivot == 0:
            raise BlasValidationError("zero pivot in unpivoted LU")
        lu[k + 1 :, k] /= pivot
        lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    return lu


def k_getrf_nopiv() -> Kernel:
    """In-place unpivoted LU of a diagonal tile: ``a := L\\U`` packed."""

    def kernel(a: np.ndarray) -> None:
        a[...] = _lu_nopivot(a)

    return kernel
