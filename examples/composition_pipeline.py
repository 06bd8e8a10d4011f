#!/usr/bin/env python
"""Kernel composition: TRSM followed by GEMM, the paper's Fig. 8/9 scenario.

Sparse direct solvers (MUMPS, §IV-F) issue chains of dependent BLAS calls on
sub-matrices.  With asynchronous semantics the runtime derives point-to-point
dependencies between the calls and overlaps them; with a synchronization
barrier between calls, every GPU drains before the next routine starts.

This example runs the composition on XKBLAS (async) and Chameleon Tile
(barrier), prints throughputs and an ASCII Gantt chart, and verifies the
numbers numerically at a small size.

Usage::

    python examples/composition_pipeline.py [N] [NB]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import Matrix, make_dgx1
from repro.bench.experiments.fig8_composition import run_composition
from repro.bench.experiments.fig9_gantt import gantt_ascii
from repro.libraries import make_library


def verify_numerically(platform) -> None:
    """Small numeric run proving the composed calls compute the right thing."""
    n, nb = 160, 48
    rng = np.random.default_rng(3)
    a = Matrix(n, n, data=np.asfortranarray(rng.random((n, n)) + n * np.eye(n)), name="A")
    b = Matrix.random(n, n, seed=4, name="B")
    c = Matrix.random(n, n, seed=5, name="C")
    d = Matrix.zeros(n, n, name="D")
    b0 = b.to_array().copy()
    session = make_library("xkblas", platform).session()
    session.call_async("trsm", nb, a=a, b=b)
    session.call_async("gemm", nb, a=b, b=c, c=d)
    session.memory_coherent_async(d, nb)
    session.sync()
    x = np.linalg.solve(np.tril(a.to_array()), b0)
    err = float(np.max(np.abs(d.to_array() - x @ c.to_array())))
    print(f"numeric check at N={n}: max |error| = {err:.2e}")
    assert err < 1e-7


def main(n: int = 32768, nb: int = 2048) -> None:
    platform = make_dgx1(8)
    print(f"TRSM + GEMM composition, N={n}, block size {nb}\n")
    verify_numerically(platform)
    print()
    for key in ("chameleon-tile", "xkblas"):
        tflops, session = run_composition(key, n, nb, platform, keep_runtime=True)
        trace = session.runtime.trace
        print(f"--- {key}: {tflops:.1f} simulated TFlop/s "
              f"(makespan {trace.makespan():.3f}s) ---")
        for line in gantt_ascii(trace, range(platform.num_gpus), width=72):
            print(" ", line)
        gaps = sum(
            len(trace.idle_gaps(d, min_gap=0.004 * trace.makespan()))
            for d in range(platform.num_gpus)
        )
        print(f"  synchronization gaps across GPUs: {gaps}\n")
    print("XKBLAS overlaps the two calls (no barrier); Chameleon shows the")
    print("inter-call synchronization gap of the paper's Fig. 9.")


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 32768
    nb = int(sys.argv[2]) if len(sys.argv) > 2 else 2048
    main(n, nb)
