"""Standard BLAS-3 flop counts.

The usual LAPACK Working Note formulas; these are both the perf-mode compute
model inputs and the numerators of every GFlop/s figure the benchmark harness
reports (the paper reports TFlop/s computed the same way).

Real-arithmetic counts; complex routines would multiply by 4 (multiplications)
— the paper evaluates FP64 real routines, and our Hermitian variants are run
on real data where they coincide with the symmetric counts.
"""

from __future__ import annotations


def gemm_flops(m: int, n: int, k: int) -> float:
    """C(m,n) += A(m,k) B(k,n): 2mnk."""
    return 2.0 * m * n * k


def symm_flops(side_left: bool, m: int, n: int) -> float:
    """C(m,n) = A_sym B: 2m²n (left) or 2mn² (right)."""
    return 2.0 * m * m * n if side_left else 2.0 * m * n * n


def syrk_flops(n: int, k: int) -> float:
    """C(n,n) += A(n,k) Aᵀ: kn(n+1) ≈ n²k."""
    return float(k) * n * (n + 1)


def syr2k_flops(n: int, k: int) -> float:
    """C(n,n) += A Bᵀ + B Aᵀ: 2kn(n+1) ≈ 2n²k."""
    return 2.0 * k * n * (n + 1)


def trmm_flops(side_left: bool, m: int, n: int) -> float:
    """B = A_tri B: m²n (left) or mn² (right)."""
    return float(m) * m * n if side_left else float(m) * n * n


def trsm_flops(side_left: bool, m: int, n: int) -> float:
    """Solve A_tri X = B: m²n (left) or mn² (right)."""
    return float(m) * m * n if side_left else float(m) * n * n


def potrf_flops(n: int) -> float:
    """Cholesky factorization of an n×n tile: n³/3 + n²/2 + n/6."""
    return n**3 / 3.0 + n**2 / 2.0 + n / 6.0


def trtri_flops(n: int) -> float:
    """Triangular inversion of an n×n tile: n³/3 + ..."""
    return n**3 / 3.0 + 2.0 * n / 3.0


def lauum_flops(n: int) -> float:
    """Triangular product UUᴴ / LᴴL of an n×n tile: n³/3 + ..."""
    return n**3 / 3.0 + n**2 / 2.0 + n / 6.0


def getrf_flops(m: int, n: int) -> float:
    """Unpivoted LU of an m×n tile: mn² - n³/3 for m >= n."""
    k = min(m, n)
    return m * n * k - (m + n) * k**2 / 2.0 + k**3 / 3.0


#: Kernel efficiency scale relative to GEMM on a V100 (triangular solves map
#: worse onto the hardware; used by the perf-mode duration model).
KERNEL_REGULARITY: dict[str, float] = {
    "gemm": 1.00,
    "symm": 0.97,
    "hemm": 0.97,
    "syrk": 0.95,
    "herk": 0.95,
    "syr2k": 0.95,
    "her2k": 0.95,
    "trmm": 0.90,
    "trsm": 0.72,
    "potrf": 0.30,  # panel factorization: latency-bound on a GPU
    "trtri": 0.30,
    "lauum": 0.60,
    "getrf": 0.25,  # unpivoted LU panel, strongly latency-bound
    "lascl": 0.50,
    "flush": 1.0,
}
