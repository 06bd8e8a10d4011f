"""Extension benchmarks: the LAPACK-level composition suite.

Complements ``test_extension_cholesky.py`` with the inversion and LU
pipelines — the downstream-user features built on top of the reproduced
runtime.
"""

from __future__ import annotations

from repro import Runtime
from repro.blas.params import Uplo
from repro.lapack import gesv_async, potri_async, trtri_async
from repro.lapack.getrf import getrf_total_flops
from repro.memory.matrix import Matrix

N, NB = 24576, 1024


def test_extension_potri_pipeline(benchmark, dgx1):
    """SPD inversion (TRTRI + LAUUM) as one overlapped pipeline."""

    def run():
        rt = Runtime(dgx1)
        a = Matrix.meta(N, N, name="L")
        potri_async(rt, Uplo.LOWER, a, NB)
        rt.memory_coherent_async(a, NB)
        seconds = rt.sync()
        tasks = rt.executor.graph.tasks
        trtri_end = max(t.end_time for t in tasks if t.name == "trtri")
        lauum_start = min(
            t.start_time for t in tasks if t.name in ("lauum", "syrk")
        )
        return {"seconds": seconds, "overlap": lauum_start < trtri_end}

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    flops = 2 * N**3 / 3.0
    print(f"\n  POTRI N={N}: {out['seconds']:.3f}s "
          f"({flops / out['seconds'] / 1e12:.1f} TFlop/s), "
          f"phases overlap: {out['overlap']}")
    benchmark.extra_info.update(out)
    assert out["overlap"], "LAUUM must start before TRTRI finishes"


def test_extension_gesv_pipeline(benchmark, dgx1):
    """Unpivoted LU factor + 2 solves, fully composed."""

    def run():
        rt = Runtime(dgx1)
        a = Matrix.meta(N, N, name="A")
        b = Matrix.meta(N, 4096, name="B")
        gesv_async(rt, a, b, NB)
        rt.memory_coherent_async(b, NB)
        return rt.sync()

    seconds = benchmark.pedantic(run, rounds=1, iterations=1)
    flops = getrf_total_flops(N) + 2 * 2.0 * N * N * 4096
    print(f"\n  GESV N={N}, nrhs=4096: {seconds:.3f}s "
          f"({flops / seconds / 1e12:.1f} TFlop/s)")
    benchmark.extra_info["seconds"] = seconds
    assert seconds > 0

