#!/usr/bin/env python
"""Quickstart: multiply two matrices on the simulated 8-GPU DGX-1.

Runs a numeric DGEMM through the full XKBLAS-style stack (dataflow runtime,
software cache, topology-aware + optimistic transfer heuristics), validates
the result against NumPy, and prints what the simulated machine did.

Usage::

    python examples/quickstart.py [N] [NB]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import Matrix, make_dgx1
from repro.libraries import XkBlas


def main(n: int = 1024, nb: int = 256) -> None:
    platform = make_dgx1(num_gpus=8)
    print(f"platform : {platform.name}")
    print(f"           {platform.num_gpus}x {platform.gpus[0].name}, "
          f"{platform.aggregate_fp64_peak() / 1e12:.1f} TFlop/s FP64 aggregate")

    # Numeric-mode matrices: real NumPy data, verifiable results.
    a = Matrix.random(n, n, seed=0, name="A")
    b = Matrix.random(n, n, seed=1, name="B")
    c = Matrix.random(n, n, seed=2, name="C")
    c0 = c.to_array().copy()

    lib = XkBlas(platform)
    result = lib.call("gemm", nb, keep_runtime=True, a=a, b=b, c=c, beta=0.5)

    expected = 1.0 * (a.to_array() @ b.to_array()) + 0.5 * c0
    error = float(np.max(np.abs(c.to_array() - expected)))

    print(f"\nC = alpha*A*B + beta*C with N={n}, tile size nb={nb}")
    print(f"simulated time : {result.seconds * 1e3:9.3f} ms")
    print(f"throughput     : {result.gflops:9.1f} simulated GFlop/s")
    print(f"max |error|    : {error:.2e}  (vs NumPy reference)")

    stats = result.runtime.stats()
    tr = stats["transfers"]
    print("\nwhat the machine did:")
    print(f"  tasks executed        : {stats['tasks']}")
    print(f"  host->device copies   : {tr['h2d']}")
    print(f"  device->device copies : {tr['p2p']} "
          f"({tr['optimistic_forwards']} by the optimistic heuristic)")
    print(f"  device->host copies   : {tr['d2h']}")
    print(f"  PCIe traffic          : {stats['host_bytes'] / 1e6:.1f} MB")
    print(f"  NVLink traffic        : {stats['p2p_bytes'] / 1e6:.1f} MB")
    print(f"  transfer share        : {100 * result.transfer_share():.1f}% "
          f"of cumulative GPU time")
    assert error < 1e-9


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1024
    nb = int(sys.argv[2]) if len(sys.argv) > 2 else 256
    main(n, nb)
