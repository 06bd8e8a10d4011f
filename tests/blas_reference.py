"""Whole-matrix reference BLAS-3 routines (test oracles).

Straightforward NumPy implementations with exact BLAS semantics (triangle-only
updates, unit diagonals, side/uplo/trans handling).  Every tiled algorithm in
:mod:`repro.blas.tiled` is validated against these in the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.blas.kernels import _op, _solve_triangular, _store_triangle, _sym, _tri
from repro.blas.params import Diag, Side, Trans, Uplo
from repro.errors import BlasValidationError


def _check_2d(name: str, x: np.ndarray) -> None:
    if x.ndim != 2:
        raise BlasValidationError(f"{name} must be 2-D")


def ref_gemm(
    alpha: float,
    a: np.ndarray,
    b: np.ndarray,
    beta: float,
    c: np.ndarray,
    transa: Trans = Trans.NOTRANS,
    transb: Trans = Trans.NOTRANS,
) -> np.ndarray:
    """``c = alpha op(a) op(b) + beta c`` (returns the updated ``c``)."""
    for name, x in (("a", a), ("b", b), ("c", c)):
        _check_2d(name, x)
    oa, ob = _op(a, transa), _op(b, transb)
    if oa.shape[1] != ob.shape[0] or (oa.shape[0], ob.shape[1]) != c.shape:
        raise BlasValidationError(
            f"gemm shapes: op(a){oa.shape} op(b){ob.shape} c{c.shape}"
        )
    c[...] = alpha * (oa @ ob) + beta * c
    return c


def ref_symm(
    side: Side,
    uplo: Uplo,
    alpha: float,
    a: np.ndarray,
    b: np.ndarray,
    beta: float,
    c: np.ndarray,
    hermitian: bool = False,
) -> np.ndarray:
    """``c = alpha sym(a) b + beta c`` or the right-side analogue."""
    full = _sym(a, uplo, hermitian)
    need = c.shape[0] if side is Side.LEFT else c.shape[1]
    if full.shape != (need, need):
        raise BlasValidationError(f"symm: a{a.shape} incompatible with c{c.shape}")
    if side is Side.LEFT:
        c[...] = alpha * (full @ b) + beta * c
    else:
        c[...] = alpha * (b @ full) + beta * c
    return c


def ref_syrk(
    uplo: Uplo,
    trans: Trans,
    alpha: float,
    a: np.ndarray,
    beta: float,
    c: np.ndarray,
    hermitian: bool = False,
) -> np.ndarray:
    """Triangle-only rank-k update."""
    at = _op(a, trans)
    if at.shape[0] != c.shape[0] or c.shape[0] != c.shape[1]:
        raise BlasValidationError(f"syrk: op(a){at.shape} c{c.shape}")
    other = at.conj().T if hermitian else at.T
    full = alpha * (at @ other) + beta * c
    _store_triangle(c, full, uplo)
    return c


def ref_syr2k(
    uplo: Uplo,
    trans: Trans,
    alpha: float,
    a: np.ndarray,
    b: np.ndarray,
    beta: float,
    c: np.ndarray,
    hermitian: bool = False,
) -> np.ndarray:
    """Triangle-only rank-2k update."""
    at, bt = _op(a, trans), _op(b, trans)
    if at.shape != bt.shape or at.shape[0] != c.shape[0]:
        raise BlasValidationError(f"syr2k: op(a){at.shape} op(b){bt.shape} c{c.shape}")
    if hermitian:
        full = alpha * (at @ bt.conj().T) + np.conj(alpha) * (bt @ at.conj().T)
    else:
        full = alpha * (at @ bt.T) + alpha * (bt @ at.T)
    full = full + beta * c
    _store_triangle(c, full, uplo)
    return c


def ref_trmm(
    side: Side,
    uplo: Uplo,
    transa: Trans,
    diag: Diag,
    alpha: float,
    a: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """In-place ``b = alpha op(tri(a)) b`` (or right-side)."""
    t = _op(_tri(a, uplo, diag), transa)
    if side is Side.LEFT:
        if t.shape[1] != b.shape[0]:
            raise BlasValidationError(f"trmm: a{a.shape} b{b.shape}")
        b[...] = alpha * (t @ b)
    else:
        if b.shape[1] != t.shape[0]:
            raise BlasValidationError(f"trmm: a{a.shape} b{b.shape}")
        b[...] = alpha * (b @ t)
    return b


def ref_trsm(
    side: Side,
    uplo: Uplo,
    transa: Trans,
    diag: Diag,
    alpha: float,
    a: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """In-place solve ``op(tri(a)) X = alpha b`` (or right-side)."""
    if side is Side.LEFT:
        if a.shape[0] != b.shape[0]:
            raise BlasValidationError(f"trsm: a{a.shape} b{b.shape}")
        b[...] = _solve_triangular(a, alpha * b, uplo, transa, diag)
    else:
        if a.shape[0] != b.shape[1]:
            raise BlasValidationError(f"trsm: a{a.shape} b{b.shape}")
        t = _op(_tri(a, uplo, diag), transa)
        b[...] = np.linalg.solve(t.T, (alpha * b).T).T
    return b


def ref_hemm(*args, **kwargs) -> np.ndarray:
    """Hermitian SYMM."""
    return ref_symm(*args, hermitian=True, **kwargs)


def ref_herk(*args, **kwargs) -> np.ndarray:
    """Hermitian SYRK."""
    return ref_syrk(*args, hermitian=True, **kwargs)


def ref_her2k(*args, **kwargs) -> np.ndarray:
    """Hermitian SYR2K."""
    return ref_syr2k(*args, hermitian=True, **kwargs)
