"""Fig. 6 — detailed execution of GEMM FP64 at N = 32768.

Cumulative execution time per operation category (left plot) and the
normalized ratio over total execution (right plot), per library — regenerated
from the simulator's nvprof-like trace.  Shape criteria (§IV-E):

* XKBlas has the lowest transfer share (paper: ≈25.4%);
* Chameleon Tile comes next (paper: ≈41.2%);
* cuBLAS-XT spends most of its cumulative time in data transfers.

The checks are calibrated at the paper's size, and six GEMM runs at N=32768
are cheap, so ``fast`` runs that size too.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult, run_point
from repro.sim.trace import TraceCategory
from repro.topology.dgx1 import make_dgx1
from repro.topology.platform import Platform

LIBRARIES = ("blasx", "chameleon-tile", "cublas-mg", "cublas-xt", "dplasma", "xkblas")
N = 32768
NB = 2048

CATEGORIES = (
    TraceCategory.MEMCPY_DTOH,
    TraceCategory.MEMCPY_HTOD,
    TraceCategory.MEMCPY_PTOP,
    TraceCategory.KERNEL,
)


def run(
    platform: Platform | None = None,
    fast: bool = False,
    n: int = N,
    nb: int = NB,
    libraries: tuple[str, ...] = LIBRARIES,
) -> ExperimentResult:
    plat = platform if platform is not None else make_dgx1(8)
    rows = []
    shares: dict[str, float] = {}
    h2d_time: dict[str, float] = {}
    for lib in libraries:
        res = run_point(lib, "gemm", n, nb, plat, keep_runtime=True)
        trace = res.runtime.trace
        cumulative = trace.cumulative_by_category()
        normalized = trace.normalized_by_category()
        shares[lib] = trace.transfer_share()
        h2d_time[lib] = cumulative.get(TraceCategory.MEMCPY_HTOD, 0.0)
        row: list[object] = [res.library]
        for cat in CATEGORIES:
            row.append(round(cumulative.get(cat, 0.0), 2))
        for cat in CATEGORIES:
            row.append(f"{100 * normalized.get(cat, 0.0):.1f}%")
        rows.append(row)
    lowest = min(shares.values())
    checks = {
        "XKBlas among the lowest transfer shares": shares["xkblas"] <= lowest * 1.05,
        "XKBlas transfer share in the 15-40% band (paper ~25.4%)": (
            0.15 <= shares["xkblas"] <= 0.40
        ),
        "Chameleon Tile transfer share above XKBlas (paper ~41.2% vs 25.4%)": (
            shares.get("chameleon-tile", 1.0) > shares["xkblas"]
        ),
        "cuBLAS-XT spends the most time in host transfers": (
            h2d_time["cublas-xt"] == max(h2d_time.values())
        ),
    }
    return ExperimentResult(
        experiment="Fig. 6",
        title=f"GEMM FP64 N={n}: cumulative time (s) and normalized ratio per category",
        columns=["library"]
        + [f"{c.value} (s)" for c in CATEGORIES]
        + [f"{c.value} (%)" for c in CATEGORIES],
        rows=rows,
        checks=checks,
    )


if __name__ == "__main__":  # pragma: no cover
    print(run(fast=True).render())
