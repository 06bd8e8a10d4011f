"""Table II — maximum loss/gain of the XKBlas variants vs the baseline.

For matrix dimensions >= 16384 (the paper's threshold), reports per routine:

* the maximum *gain* of data-on-device over data-on-host (paper: +111.7% for
  DGEMM, +71.1% DSYR2K, +52.6% DTRSM);
* the maximum *loss* with the optimistic heuristic disabled (paper: −43.5%,
  −19.4%, −29.6%);
* the maximum *loss* with both heuristics disabled (paper: −43%, −53.5%,
  −29.3%).

Shape checks assert the signs and the routine ordering, not the absolute
percentages (our substrate is a simulator, §IV-A of DESIGN.md).
"""

from __future__ import annotations

from repro.bench.cellspec import PlatformHandle
from repro.bench.executor import SweepExecutor
from repro.bench.harness import ExperimentResult, best_tiles, every_point
from repro.bench.workloads import paper_sizes

ROUTINES = ("gemm", "syr2k", "trsm")
THRESHOLD = 16384

#: The paper's Table II values, for side-by-side reporting.
PAPER_VALUES = {
    "gemm": ("+111.7%", "-43.5%", "-43.0%"),
    "syr2k": ("+71.1%", "-19.4%", "-53.5%"),
    "trsm": ("+52.6%", "-29.6%", "-29.3%"),
}


#: (library, scenario) of the table's four measurement series.
VARIANTS = (
    ("xkblas", "host"),
    ("xkblas", "device"),
    ("xkblas-no-heuristic", "host"),
    ("xkblas-no-heuristic-no-topo", "host"),
)


def run(
    platform: PlatformHandle | None = None,
    fast: bool = False,
    sizes: tuple[int, ...] | None = None,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    all_sizes = sizes if sizes is not None else paper_sizes(fast)
    sizes = tuple(n for n in all_sizes if n >= THRESHOLD)
    # The host-scenario points are the points Fig. 3 sweeps, so in an
    # ``all`` run their cells are memo hits here, not re-simulations.
    best = every_point(best_tiles(
        [
            (lib, routine, n, scenario)
            for routine in ROUTINES
            for lib, scenario in VARIANTS
            for n in sizes
        ],
        platform, fast=fast, executor=executor,
    ))
    rows = []
    measured: dict[str, tuple[float, float, float]] = {}
    for routine in ROUTINES:
        base, dod, noheur, notopo = (
            {n: best[lib, routine, n, scenario].tflops for n in sizes}
            for lib, scenario in VARIANTS
        )
        gain_dod = max((dod[n] - base[n]) / base[n] for n in sizes) * 100
        loss_noheur = min((noheur[n] - base[n]) / base[n] for n in sizes) * 100
        loss_notopo = min((notopo[n] - base[n]) / base[n] for n in sizes) * 100
        measured[routine] = (gain_dod, loss_noheur, loss_notopo)
        paper = PAPER_VALUES[routine]
        rows.append(
            [
                f"D{routine.upper()}",
                f"{gain_dod:+.1f}% (paper {paper[0]})",
                f"{loss_noheur:+.1f}% (paper {paper[1]})",
                f"{loss_notopo:+.1f}% (paper {paper[2]})",
            ]
        )
    checks = {
        "data-on-device gains on every routine": all(
            measured[r][0] > 0 for r in ROUTINES
        ),
        "disabling the optimistic heuristic loses on every routine": all(
            measured[r][1] < 0 for r in ROUTINES
        ),
        "disabling both loses at least as much as disabling one": all(
            measured[r][2] <= measured[r][1] + 1.0 for r in ROUTINES
        ),
        "SYR2K hurt most by losing the topology ranking": (
            (measured["syr2k"][2] - measured["syr2k"][1])
            <= (measured["gemm"][2] - measured["gemm"][1])
        ),
    }
    notes = [
        "known deviation (EXPERIMENTS.md): in the paper GEMM loses ~43% from the"
        " optimistic heuristic alone and nothing more from the topology ranking;"
        " in our model the split between the two heuristics differs, though the"
        " combined loss and the per-routine ordering match.",
    ]
    return ExperimentResult(
        experiment="Table II",
        title=f"Max loss/gain vs baseline XKBlas, N >= {THRESHOLD}",
        columns=["kernel", "data-on-device", "no heuristic", "no heuristic, no topo"],
        rows=rows,
        notes=notes,
        checks=checks,
    )


if __name__ == "__main__":  # pragma: no cover
    print(run(fast=True).render())
