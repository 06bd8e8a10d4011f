"""Extension experiment: strong scaling with GPU count.

Not a paper figure — the paper claims "XKBlas scales on multi-GPU systems"
(§V) but only reports the 8-GPU endpoint.  This sweep runs GEMM and SYR2K on
1..8 GPUs of the DGX-1 wiring and reports speedups over 1 GPU, with and
without the heuristics, quantifying how much of the scaling the two heuristics
buy.
"""

from __future__ import annotations

from repro.bench.cellspec import CellSpec, PlatformHandle
from repro.bench.executor import SweepExecutor, default_executor
from repro.bench.harness import ExperimentResult

GPU_COUNTS = (1, 2, 4, 6, 8)
N, NB = 16384, 2048
VARIANTS = ("xkblas", "xkblas-no-heuristic-no-topo")


def run(
    fast: bool = False,
    n: int = N,
    nb: int = NB,
    gpu_counts: tuple[int, ...] = GPU_COUNTS,
    routines: tuple[str, ...] = ("gemm", "syr2k"),
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    if fast:
        gpu_counts = tuple(g for g in gpu_counts if g in (1, 4, 8))
    ex = executor if executor is not None else default_executor()
    # Every (routine, variant, gpu-count) cell up front, one batch: the
    # per-count platforms are just handles, built inside the workers.
    specs = {
        (routine, variant, g): CellSpec(
            library=variant, routine=routine, n=n, nb=nb,
            platform=PlatformHandle("dgx1", g),
        )
        for routine in routines
        for g in gpu_counts
        for variant in VARIANTS
    }
    outcomes = ex.evaluate(specs.values())
    tflops = {key: outcomes[spec].tflops for key, spec in specs.items()}
    rows = []
    for routine in routines:
        for g in gpu_counts:
            full = tflops[(routine, "xkblas", g)]
            base = tflops[(routine, "xkblas-no-heuristic-no-topo", g)]
            speedup = full / tflops[(routine, "xkblas", gpu_counts[0])]
            rows.append(
                [routine, g, round(full, 2), round(base, 2), round(speedup, 2)]
            )
    checks: dict[str, bool] = {}
    for routine in routines:
        series = [tflops[(routine, "xkblas", g)] for g in gpu_counts]
        checks[f"{routine}: throughput grows with GPU count"] = all(
            b >= a * 0.98 for a, b in zip(series, series[1:])
        )
        eight = tflops[(routine, "xkblas", gpu_counts[-1])]
        one = tflops[(routine, "xkblas", gpu_counts[0])]
        checks[f"{routine}: >=3x speedup at {gpu_counts[-1]} GPUs"] = (
            eight >= 3.0 * one
        )
        gain8 = (
            tflops[(routine, "xkblas", gpu_counts[-1])]
            / tflops[(routine, "xkblas-no-heuristic-no-topo", gpu_counts[-1])]
        )
        checks[f"{routine}: heuristics help at {gpu_counts[-1]} GPUs"] = gain8 > 1.02
    return ExperimentResult(
        experiment="Scaling (extension)",
        title=f"Strong scaling with GPU count, N={n}, nb={nb} (TFlop/s)",
        columns=["routine", "#GPUs", "xkblas", "no-heuristics", "speedup vs 1 GPU"],
        rows=rows,
        notes=[
            "not a paper figure: quantifies the §V scaling claim and the share"
            " of it owed to the two heuristics",
        ],
        checks=checks,
    )


if __name__ == "__main__":  # pragma: no cover
    print(run(fast=True).render())
