"""Fig. 4 — performance with data-on-device (2D block-cyclic) vs data-on-host.

Curves per routine (GEMM, SYR2K, TRSM): XKBlas data-on-host, XKBlas DoD,
Chameleon Tile and cuBLAS-XT as references.  Shape criteria (§IV-C):

* DoD dominates data-on-host, most at small/mid N (paper: ~50 TFlop/s already
  at N≈10000);
* the DoD/host gap shrinks as N grows (arithmetic intensity is O(N), the
  communication/computation ratio tends to 0);
* Chameleon Tile approaches (paper: overtakes) XKBlas DoD on SYR2K at the
  largest sizes.
"""

from __future__ import annotations

from repro.bench.cellspec import PlatformHandle
from repro.bench.executor import SweepExecutor
from repro.bench.harness import ExperimentResult, best_tiles, every_point, series_to_rows
from repro.bench.workloads import paper_sizes

ROUTINES = ("gemm", "syr2k", "trsm")

#: (series suffix, library, scenario) of the figure's four curves.
CURVES = (
    ("xkblas-host", "xkblas", "host"),
    ("xkblas-dod", "xkblas", "device"),
    ("chameleon-tile", "chameleon-tile", "host"),
    ("cublas-xt", "cublas-xt", "host"),
)


def run(
    platform: PlatformHandle | None = None,
    fast: bool = False,
    sizes: tuple[int, ...] | None = None,
    routines: tuple[str, ...] = ROUTINES,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    sizes = sizes if sizes is not None else paper_sizes(fast)
    best = every_point(best_tiles(
        [
            (lib, routine, n, scenario)
            for routine in routines
            for _, lib, scenario in CURVES
            for n in sizes
        ],
        platform, fast=fast, executor=executor,
    ))
    series = {
        f"{routine}/{suffix}": {n: best[lib, routine, n, scenario].tflops for n in sizes}
        for routine in routines
        for suffix, lib, scenario in CURVES
    }

    checks: dict[str, bool] = {}
    for routine in routines:
        host = series[f"{routine}/xkblas-host"]
        dod = series[f"{routine}/xkblas-dod"]
        mid = [n for n in sizes if n >= 16384]
        checks[f"{routine}: DoD >= host at N>=16384"] = all(
            dod[n] >= host[n] * 0.97 for n in mid
        )
        if len(mid) >= 2:
            first, last = mid[0], mid[-1]
            gap_first = dod[first] / host[first]
            gap_last = dod[last] / host[last]
            checks[f"{routine}: DoD/host gap shrinks with N"] = (
                gap_last <= gap_first + 0.02
            )
    if "gemm" in routines:
        near10k = min(sizes, key=lambda n: abs(n - 10240))
        checks["GEMM DoD fast already at N~10k (>=40 TFlop/s)"] = (
            series["gemm/xkblas-dod"][near10k] >= 40.0
        )
    return ExperimentResult(
        experiment="Fig. 4",
        title="Data-on-device (2D block-cyclic) vs data-on-host (TFlop/s)",
        columns=["N"] + list(series),
        rows=series_to_rows(sizes, series),
        notes=["DoD tile size = ceil(N / #GPUs), the paper's slackness rule (§IV-C)"],
        checks=checks,
    )


if __name__ == "__main__":  # pragma: no cover
    print(run(fast=True).render())
