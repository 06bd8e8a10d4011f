"""repro — reproduction of *"Evaluation of two topology-aware heuristics on
level-3 BLAS library for multi-GPU platforms"* (Gautier & Lima, PAW-ATM/SC'21).

A simulated multi-GPU BLAS-3 software stack: a discrete-event model of the
NVIDIA DGX-1 platform, an XKaapi-style dataflow task runtime with a software
cache, the paper's two data-transfer heuristics (topology-aware source
selection and optimistic device-to-device forwarding), tiled BLAS-3
algorithms executed numerically with NumPy, simulated comparator libraries
(cuBLAS-XT, cuBLAS-MG, BLASX, Chameleon, SLATE, DPLASMA), and the full
experiment harness regenerating every table and figure of the paper.

Quickstart::

    import numpy as np
    from repro import Matrix, make_dgx1
    from repro.libraries import XkBlas

    plat = make_dgx1(num_gpus=8)
    lib = XkBlas(plat)
    A = Matrix.random(4096, 4096, seed=0, name="A")
    B = Matrix.random(4096, 4096, seed=1, name="B")
    C = Matrix.zeros(4096, 4096, name="C")
    result = lib.call("gemm", 1024, a=A, b=B, c=C)  # alpha=1, beta=0 by default
    print(f"{result.gflops:.1f} simulated GFlop/s in {result.seconds:.4f} s")
"""

from repro.memory.matrix import Matrix
from repro.runtime.api import Runtime, RuntimeOptions
from repro.runtime.policies import SourcePolicy
from repro.topology import Platform, make_dgx1, make_nvswitch_node, make_summit_node

__version__ = "1.0.0"

__all__ = [
    "Matrix",
    "Platform",
    "Runtime",
    "RuntimeOptions",
    "SourcePolicy",
    "__version__",
    "make_dgx1",
    "make_nvswitch_node",
    "make_summit_node",
]
