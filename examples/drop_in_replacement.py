#!/usr/bin/env python
"""Drop-in replacement scenario: a legacy LAPACK-layout application.

The paper's motivating use case (§I, §IV-D): an application written against
standard BLAS, with matrices in LAPACK layout on the host, sped up by routing
its calls to a multi-GPU library without code refactoring.  The workload is a
Gram-matrix pipeline common in statistics / ML preprocessing:

    S  = Aᵀ A                (SYRK  — covariance / Gram matrix)
    S' = S + Bᵀ C + Cᵀ B     (SYR2K — cross-term update)
    Y  = sym(S') X           (SYMM  — apply to a block of vectors)

Each simulated library sees the same calls; only runtime design differs.
Compare the drop-in candidates the paper names (§IV-D): cuBLAS-XT,
Chameleon-LAPACK and XKBLAS.

Usage::

    python examples/drop_in_replacement.py [N] [NB]
"""

from __future__ import annotations

import sys

from repro import Matrix, make_dgx1
from repro.blas.params import Trans
from repro.libraries import make_library


def pipeline_seconds(key: str, platform, n: int, nb: int) -> tuple[float, float]:
    """Run the three-call pipeline; returns (seconds, total TFlops)."""
    lib = make_library(key, platform)
    a = Matrix.meta(n, n, name="A")
    b = Matrix.meta(n, n, name="B")
    c = Matrix.meta(n, n, name="C")
    s = Matrix.meta(n, n, name="S")
    x = Matrix.meta(n, n // 4, name="X")
    y = Matrix.meta(n, n // 4, name="Y")
    session = lib.session()
    session.call_async("syrk", nb, trans=Trans.TRANS, a=a, c=s)
    session.call_async("syr2k", nb, trans=Trans.TRANS, a=b, b=c, beta=1.0, c=s)
    session.call_async("symm", nb, a=s, b=x, c=y)
    session.memory_coherent_async(y, nb)
    session.memory_coherent_async(s, nb)
    seconds = session.sync()
    seconds += session.extra_host_seconds  # Chameleon-LAPACK conversions
    return seconds, session.flops / 1e12


def main(n: int = 16384, nb: int = 2048) -> None:
    platform = make_dgx1(8)
    print(f"Gram-matrix pipeline (SYRK + SYR2K + SYMM), N={n}, nb={nb}")
    print(f"platform: {platform.name}\n")
    print(f"{'library':20s} {'time (s)':>10s} {'TFlop/s':>9s} {'vs cuBLAS-XT':>13s}")
    baseline = None
    for key in ("cublas-xt", "chameleon-lapack", "chameleon-tile", "xkblas"):
        seconds, tflops_total = pipeline_seconds(key, platform, n, nb)
        rate = tflops_total / seconds
        if key == "cublas-xt":
            baseline = seconds
        speedup = baseline / seconds
        print(f"{key:20s} {seconds:10.3f} {rate:9.2f} {speedup:12.2f}x")
    print(
        "\nXKBLAS composes the three calls through dataflow dependencies and\n"
        "keeps intermediate tiles on the GPUs (lazy coherence), while the\n"
        "synchronous libraries move data back and forth per call (paper §IV-F)."
    )


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 16384
    nb = int(sys.argv[2]) if len(sys.argv) > 2 else 2048
    main(n, nb)
