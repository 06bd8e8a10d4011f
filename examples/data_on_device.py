#!/usr/bin/env python
"""Data-on-device: 2D block-cyclic distribution over the GPUs (paper §IV-C).

Treats the 8 GPUs as a distributed-memory machine: matrices are distributed
with the ScaLAPACK-style 2D block-cyclic mapping
(``xkblas_distribute_2Dblock_cyclic_async`` in the real library) and all
transfers then ride the NVLink mesh instead of PCIe.

Sweeps matrix sizes and compares data-on-host vs data-on-device throughput,
reproducing the Fig. 4 behaviour: a large gap at small N that closes as the
arithmetic intensity O(N) grows.

Usage::

    python examples/data_on_device.py [sizes...]
"""

from __future__ import annotations

import sys

from repro import Matrix, make_dgx1
from repro.bench.harness import best_over_tiles, dod_tile_size
from repro.libraries import make_library
from repro.memory.layout import BlockCyclicDistribution, default_grid


def main(sizes: list[int]) -> None:
    platform = make_dgx1(8)
    grid = default_grid(platform.num_gpus)
    print(f"platform: {platform.name}; GPU grid {grid[0]}x{grid[1]}, "
          "cyclic blocks (1,1) — adjacent tiles on different GPUs\n")

    print(f"{'N':>7s} {'host TF/s':>10s} {'DoD TF/s':>10s} {'DoD tile':>9s} "
          f"{'gain':>7s} {'PCIe fabric MB':>15s}")
    for n in sizes:
        host = best_over_tiles("xkblas", "gemm", n, fast=True).tflops
        nb = dod_tile_size(n, platform.num_gpus)
        lib = make_library("xkblas", platform)
        a, b, c = (Matrix.meta(n, n, name=x) for x in "ABC")
        res = lib.call("gemm", nb, "device", keep_runtime=True, a=a, b=b, c=c)
        pcie_mb = res.runtime.fabric.host_bytes_total() / 1e6
        gain = res.tflops / host - 1
        print(f"{n:7d} {host:10.1f} {res.tflops:10.1f} {nb:9d} "
              f"{100 * gain:+6.1f}% {pcie_mb:15.1f}")

    # Show the distribution itself on a small numeric matrix.
    print("\ntile ownership of a 6x6-tile matrix under the (4,2) grid:")
    from repro import Runtime

    rt = Runtime(platform)
    mat = Matrix.meta(6 * 256, 6 * 256, name="M")
    dist = BlockCyclicDistribution(*grid)
    part = rt.distribute_2d_block_cyclic_async(mat, 256, dist, upload=False)
    for i in range(part.mt):
        print("   " + " ".join(f"g{dist.owner(i, j)}" for j in range(part.nt)))


if __name__ == "__main__":
    sizes = [int(s) for s in sys.argv[1:]] or [8192, 16384, 24576, 32768]
    main(sizes)
