"""Fig. 8 — composition of TRSM + GEMM, Chameleon Tile vs XKBlas.

One asynchronous TRSM followed by a GEMM consuming its result, swept over the
matrix dimension at block size 2048.  Shape criteria (§IV-F):

* XKBlas composes the two calls (no barrier): its composed throughput
  approaches its standalone GEMM peak (paper: 56.6 vs 56.9 TFlop/s);
* Chameleon's synchronization point between the calls keeps it clearly below
  its own GEMM peak (paper: 36.6 vs 51.3 TFlop/s).
"""

from __future__ import annotations

from repro.bench.cellspec import CellSpec, PlatformHandle, as_handle
from repro.bench.executor import SweepExecutor, default_executor
from repro.bench.harness import ExperimentResult
from repro.bench.workloads import matrices_for, paper_sizes
from repro.libraries.registry import make_library
from repro.memory.matrix import Matrix
from repro.topology.platform import Platform

NB = 2048
LIBRARIES = ("chameleon-tile", "xkblas")


def run_composition(
    library: str, n: int, nb: int, platform: Platform, keep_runtime: bool = False
):
    """TRSM(A, B) then GEMM(B, C) -> D through one session; returns
    (TFlop/s, session)."""
    lib = make_library(library, platform)
    a = matrices_for("trsm", n)["a"]
    b = Matrix.meta(n, n, name="B")
    c = Matrix.meta(n, n, name="C")
    d = Matrix.meta(n, n, name="D")
    session = lib.session(keep_runtime=keep_runtime)
    session.call_async("trsm", nb, a=a, b=b)
    session.call_async("gemm", nb, a=b, b=c, c=d)
    session.memory_coherent_async(d, nb)
    seconds = session.sync()
    return session.flops / seconds / 1e12, session


def run(
    platform: PlatformHandle | None = None,
    fast: bool = False,
    sizes: tuple[int, ...] | None = None,
    nb: int = NB,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    handle = as_handle(platform)
    sizes = sizes if sizes is not None else paper_sizes(fast)
    big = max(sizes)
    series: dict[str, dict[int, float]] = {lib: {} for lib in LIBRARIES}
    ex = executor if executor is not None else default_executor()
    comp = {
        (lib, n): CellSpec(
            library=lib, routine="trsm+gemm", n=n, nb=nb,
            platform=handle, mode="composition",
        )
        for n in sizes
        for lib in LIBRARIES
    }
    peaks = {
        lib: CellSpec(library=lib, routine="gemm", n=big, nb=nb, platform=handle)
        for lib in LIBRARIES
    }
    outcomes = ex.evaluate(list(comp.values()) + list(peaks.values()))
    for (lib, n), spec in comp.items():
        series[lib][n] = outcomes[spec].tflops
    xk_gemm_peak = outcomes[peaks["xkblas"]].tflops
    cham_gemm_peak = outcomes[peaks["chameleon-tile"]].tflops
    rows = [
        [n] + [round(series[lib][n], 2) for lib in LIBRARIES] for n in sizes
    ]
    checks = {
        "XKBlas composition within 10% of its GEMM peak": series["xkblas"][big]
        >= 0.90 * xk_gemm_peak,
        "Chameleon composition further below its GEMM peak than XKBlas": (
            series["chameleon-tile"][big] / cham_gemm_peak
            <= series["xkblas"][big] / xk_gemm_peak
        ),
        "XKBlas above Chameleon at every size": all(
            series["xkblas"][n] > series["chameleon-tile"][n] for n in sizes
        ),
    }
    return ExperimentResult(
        experiment="Fig. 8",
        title=f"TRSM+GEMM composition, block size {nb} (TFlop/s)",
        columns=["N"] + list(LIBRARIES),
        rows=rows,
        notes=[
            f"XKBlas GEMM peak at N={big}: {xk_gemm_peak:.1f} TFlop/s; "
            f"Chameleon GEMM peak: {cham_gemm_peak:.1f} TFlop/s"
        ],
        checks=checks,
    )


if __name__ == "__main__":  # pragma: no cover
    print(run(fast=True).render())
