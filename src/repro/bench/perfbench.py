"""Simulator performance benchmarks — the repo's wall-time trajectory.

Unlike :mod:`repro.bench.experiments`, which regenerates the *paper's*
numbers (virtual-time makespans), this harness measures the *simulator
itself*: host wall-time and events/second for perf-mode GEMM / SYR2K / TRSM
runs, plus a pure event-engine microbenchmark.  Results are written to
``BENCH_runtime.json`` at the repository root so every PR leaves a recorded
perf trajectory, and CI replays the ``--fast`` subset against the committed
baseline to catch hot-path regressions.

Two invariants make these numbers meaningful:

* **perf mode** — matrices are metadata-only (``numeric=False``), so the
  wall time is pure simulation overhead (event heap, transfer manager,
  scheduler), not numpy kernels;
* **determinism** — every optimization validated with this harness must keep
  makespans, transfer stats and event counts bit-identical (enforced by
  ``tests/test_determinism_golden.py``); the harness records those fields so
  a drift is visible right in the JSON diff.

Usage::

    python -m repro.bench.perfbench                 # full suite (incl. large-N)
    python -m repro.bench.perfbench --fast          # CI smoke subset
    python -m repro.bench.perfbench --skip-large    # full suite minus large-N
    python -m repro.bench.perfbench --large-smoke   # reduced large-N memory gate
    python -m repro.bench.perfbench --profile       # cProfile the headline point
    python -m repro.bench.perfbench --profile macro-trsm-n16384   # ...any point
    python -m repro.bench.perfbench --check-against BENCH_runtime.json

Every runtime row — the macro points, the streamed macro point and both
large rows — comes from one helper, :func:`measure_run`: a timed run with
the event recorder off and the cyclic GC paused, plus untimed replays for
the peak-memory column (``tracemalloc``) and the layer columns (exclusive
host ms per layer plus ``other``, from :class:`repro.bench.layers.LayerTracer`).
Neither the recorder nor the tracer changes what is simulated.

The large-N tier (perf-mode GEMM N=131072, a 262k-task graph) exists to prove
the streaming/reclamation path scales: it is recorded with peak-memory
columns and gated on memory (streamed peak <= 25% of the materialized peak),
never on speed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import json
import platform as host_platform
import sys
import time
import tracemalloc
from pathlib import Path

from repro import config
from repro.bench.harness import run_point
from repro.bench.layers import LayerTracer
from repro.sim.engine import Simulator
from repro.topology.dgx1 import make_dgx1

SCHEMA = "repro.bench.perfbench/v1"

#: (name, routine, n, nb) macro points; the first one is the headline number
#: the ISSUE/ROADMAP trajectory tracks (perf-mode GEMM N=32768).
MACRO_POINTS = (
    ("macro-gemm-n32768", "gemm", 32768, 2048),
    ("macro-syr2k-n16384", "syr2k", 16384, 2048),
    ("macro-trsm-n16384", "trsm", 16384, 1024),
)

FAST_MACRO_POINTS = (
    ("macro-gemm-n8192", "gemm", 8192, 512),
    ("macro-syr2k-n8192", "syr2k", 8192, 1024),
    ("macro-trsm-n8192", "trsm", 8192, 512),
)

#: (name, n, nb) of the streamed macro point: a scaled-down version of the
#: large tier (48^3 = 110,592 tasks, streaming submission + reclamation) that
#: runs in seconds, recorded as ``kind="macro"`` so the CI events/s gate and
#: the exact makespan/transfer checks cover the large-tier code path — a
#: per-event regression there fails the fast gate instead of only surfacing
#: in the multi-minute large tier.
STREAM_MACRO_POINT = ("macro-gemm-n49152-stream", 49152, 1024)

#: (name, n, nb) of the large-N streaming tier: GEMM N=131072 / nb=2048 is a
#: 64^3 = 262,144-task graph — far beyond what the retained path should be
#: asked to hold casually, which is the point: the streamed/reclaiming run
#: must complete with a fraction of the materialized peak memory.  Recorded
#: for trajectory, never speed-gated (see :func:`compare_to_baseline`).
LARGE_POINT = ("large-gemm-n131072", 131072, 2048)

#: Reduced large point for the CI smoke job: 48^3 = 110,592 tasks (still
#: comfortably past the 50k mark where materialization costs dominate) at a
#: size a CI runner finishes in minutes.
LARGE_SMOKE_POINT = ("large-gemm-n49152", 49152, 1024)

#: Acceptance ratio: streamed peak memory must be at most this fraction of
#: the materialized (retained list-submission) peak at the same point.
LARGE_PEAK_RATIO = 0.25

#: Worker count of the harness-sweep parallel measurement.
HARNESS_JOBS = 4


@dataclasses.dataclass
class BenchResult:
    """One benchmark measurement (wall time is host time, makespan virtual)."""

    name: str
    kind: str  # "macro" | "micro" | "harness" (events = sweep cells) | "large"
    wall_s: float
    events: int
    events_per_s: float
    routine: str | None = None
    n: int | None = None
    nb: int | None = None
    makespan_s: float | None = None
    tasks: int | None = None
    #: engine events fired per completed task — the quantity the submission
    #: pump's folding attacks (macro rows only; micros have no tasks).
    events_per_task: float | None = None
    transfers: dict[str, int] | None = None
    #: tracemalloc high-water of a separate, untimed replay of the same point
    #: (tracing would skew the wall-time measurement, so it never shares a
    #: run with it).  Python-allocation bytes, not RSS.
    peak_mem_bytes: int | None = None
    #: wall time of another untimed replay, under
    #: :class:`repro.bench.layers.LayerTracer`; ``traced_wall_s / wall_s`` is
    #: the tracer's overhead.
    traced_wall_s: float | None = None
    #: that replay's exclusive host ms per layer plus ``other`` (what no
    #: layer claims); the values sum to ``traced_wall_s`` in ms.
    layers_ms: dict[str, float] | None = None

    def to_json(self) -> dict:
        return {k: v for k, v in dataclasses.asdict(self).items() if v is not None}


# ------------------------------------------------------------------- micros


def bench_engine_events(num_events: int = 200_000) -> BenchResult:
    """Pure event-heap throughput: post + fire a self-respawning chain.

    Exercises exactly the ``post``/dispatch path every simulated DMA and
    kernel goes through, with a trivial callback — the heap ordering costs
    dominate, which is what the engine optimizations target.
    """
    sim = Simulator()
    remaining = num_events

    def tick() -> None:
        nonlocal remaining
        remaining -= 1
        if remaining > 0:
            sim.post(sim.now + 1.0, tick)

    # Seed a small batch so the heap has realistic depth (not a single chain).
    seeds = 64
    for i in range(seeds):
        sim.post(float(i), tick)
    gc.collect()  # do not bill leftover garbage from earlier points to this one
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    fired = sim.events_fired
    return BenchResult(
        name=f"micro-engine-{num_events // 1000}k-events",
        kind="micro",
        wall_s=wall,
        events=fired,
        events_per_s=fired / wall if wall > 0 else 0.0,
    )


# ------------------------------------------------------- runtime rows


def _traced_peak(thunk) -> int:
    """tracemalloc high-water of one ``thunk()`` call, in bytes.

    Collects leftover garbage first and re-anchors the peak at the current
    level, so back-to-back measurements in one process stay comparable (the
    reason RSS is not used: ``ru_maxrss`` is process-monotonic and can never
    show the second, smaller configuration).
    """
    gc.collect()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        thunk()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _timed(run, wrap) -> tuple:
    """``run(wrap)`` with the cyclic GC paused: ``(wall ns, its result)``.
    The previous run's task graph (one big cycle web) is collected first."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        out = run(wrap)
        return time.perf_counter_ns() - t0, out
    finally:
        gc.enable()


@contextlib.contextmanager
def _recorder_off():
    """Event recorder off for every runtime built inside the block."""
    prev = config.TRACE_EVENTS
    config.TRACE_EVENTS = False
    try:
        yield
    finally:
        config.TRACE_EVENTS = prev


def measure_run(name: str, kind: str, routine: str, n: int, nb: int,
                run) -> BenchResult:
    """Record one runtime row; every macro and large row comes from here.

    ``run(wrap)`` simulates the point once on a fresh runtime and returns
    ``(makespan, runtime)``; ``wrap`` is applied to the task stream before
    submission (``iter`` leaves it as is).  Three runs, all with the event
    recorder off:

    * the timed run, with the cyclic GC paused — ``wall_s`` and every
      virtual-time field;
    * an untimed replay under tracemalloc — ``peak_mem_bytes``;
    * an untimed replay under :class:`~repro.bench.layers.LayerTracer`, GC
      paused — ``traced_wall_s`` and ``layers_ms``.

    The simulation is deterministic, so each replay is the same run; the
    traced replay must reproduce the timed run's makespan and event count.
    """
    with _recorder_off():
        wall, (makespan, rt) = _timed(run, iter)
        events = rt.sim.events_fired
        tasks = rt.executor.completed_tasks
        transfers = rt.transfer.stats()
        del rt  # drop the kept runtime before anchoring the peak
        peak = _traced_peak(lambda: run(iter))
        tracer = LayerTracer()
        with tracer:
            traced_wall, (traced_makespan, rt) = _timed(run, tracer.tasks)
        traced_events = rt.sim.events_fired
        del rt
    if (traced_makespan, traced_events) != (makespan, events):
        raise RuntimeError(
            f"{name}: the traced replay gave makespan {traced_makespan!r} in "
            f"{traced_events} events, the timed run {makespan!r} in {events}"
        )
    wall_s = wall / 1e9
    return BenchResult(
        name=name, kind=kind, routine=routine, n=n, nb=nb,
        wall_s=wall_s, events=events,
        events_per_s=events / wall_s if wall_s > 0 else 0.0,
        makespan_s=makespan, tasks=tasks,
        events_per_task=events / tasks if tasks else None,
        transfers=transfers, peak_mem_bytes=peak,
        traced_wall_s=traced_wall / 1e9,
        layers_ms=tracer.layers_ms(traced_wall),
    )


def _run_macro(routine: str, n: int, nb: int, wrap) -> tuple:
    """One XKBLAS library call on the simulated 8-GPU DGX-1 (see
    :func:`measure_run`).  The library builds and submits its own tasks,
    so ``wrap`` goes unused and task building is billed to ``other``."""
    res = run_point(routine=routine, library="xkblas", n=n, nb=nb,
                    platform=make_dgx1(8), keep_runtime=True)
    return res.seconds, res.runtime


def bench_macro(name: str, routine: str, n: int, nb: int) -> BenchResult:
    """One perf-mode routine invocation on the simulated 8-GPU DGX-1."""
    return measure_run(name, "macro", routine, n, nb,
                       functools.partial(_run_macro, routine, n, nb))


# ----------------------------------------------------------------- large-N


def _run_large_gemm(n: int, nb: int, streaming: bool, wrap) -> tuple:
    """One perf-mode GEMM at large N, streamed+reclaiming or materialized:
    ``(makespan, runtime)`` (see :func:`measure_run`).

    Uses the runtime directly (no harness cache, no Session layer) with
    tracing off in *both* configurations, so the peak-memory comparison
    isolates exactly what the streamed configuration changes: task-graph
    retention.
    """
    from repro.blas.tiled.gemm import build_gemm
    from repro.memory.matrix import Matrix
    from repro.runtime.api import Runtime, RuntimeOptions

    rt = Runtime(
        make_dgx1(8),
        RuntimeOptions(trace=False, streaming=streaming,
                       retain_tasks=not streaming),
    )
    a, b, c = (Matrix.meta(n, n) for _ in range(3))
    pa, pb, pc = rt.partition(a, nb), rt.partition(b, nb), rt.partition(c, nb)
    tasks = wrap(build_gemm(1.0, pa, pb, 0.5, pc))
    if streaming:
        rt.submit_stream(tasks)
    else:
        for task in tasks:
            rt.submit(task)
    rt.memory_coherent_async(c, nb)
    return rt.sync(), rt


def bench_large_gemm(name: str, n: int, nb: int) -> list[BenchResult]:
    """The large-N tier: a streamed point and its materialized counterpart.

    Each configuration is one :func:`measure_run` row.  Both makespans are
    recorded: past the admission window the streamed run's submission
    instants become completion-driven, so its makespan may differ slightly
    from the materialized one (below the window they are bit-identical —
    that regime is what the golden tests pin down).
    """
    streamed = measure_run(f"{name}-stream", "large", "gemm", n, nb,
                           functools.partial(_run_large_gemm, n, nb, True))
    retained = measure_run(f"{name}-retained", "large", "gemm", n, nb,
                           functools.partial(_run_large_gemm, n, nb, False))
    if retained.tasks != streamed.tasks:
        raise RuntimeError(
            f"{name}: streamed run completed {streamed.tasks} tasks but the "
            f"materialized run completed {retained.tasks} — a graph was "
            f"truncated"
        )
    return [streamed, retained]


def bench_macro_stream(name: str, n: int, nb: int) -> BenchResult:
    """The streamed macro point: large-tier code path at CI-gateable size.

    Recorded as ``kind="macro"``, so :func:`compare_to_baseline` applies the
    events/s floor *and* the exact makespan/transfer-stat match.
    """
    return measure_run(name, "macro", "gemm", n, nb,
                       functools.partial(_run_large_gemm, n, nb, True))


def large_peak_gate(results: list[BenchResult],
                    ceiling_mb: float | None = None) -> list[str]:
    """Memory gate for the large tier (completion and speed are not gated
    here; a run that does not complete raises long before this).

    * streamed peak must be at most :data:`LARGE_PEAK_RATIO` of the
      materialized peak for the same point;
    * optionally, an absolute ceiling (MB) on every streamed peak.
    """
    failures: list[str] = []
    by_name = {r.name: r for r in results if r.kind == "large"}
    for name, res in by_name.items():
        if not name.endswith("-stream") or res.peak_mem_bytes is None:
            continue
        mate = by_name.get(name.removesuffix("-stream") + "-retained")
        if mate is not None and mate.peak_mem_bytes:
            ratio = res.peak_mem_bytes / mate.peak_mem_bytes
            if ratio > LARGE_PEAK_RATIO:
                failures.append(
                    f"{name}: streamed peak is {ratio:.1%} of the "
                    f"materialized peak (ceiling {LARGE_PEAK_RATIO:.0%})"
                )
        if ceiling_mb is not None and res.peak_mem_bytes > ceiling_mb * 1e6:
            failures.append(
                f"{name}: streamed peak {res.peak_mem_bytes / 1e6:.1f} MB "
                f"exceeds the {ceiling_mb:.0f} MB ceiling"
            )
    return failures


# ----------------------------------------------------------------- harness


def harness_slice_specs() -> list:
    """The fixed 24-cell Fig. 5 slice the harness-sweep points measure.

    2 routines x 2 libraries x 3 sizes x 2 tile candidates — small enough to
    run in CI, wide enough that pool fan-out and cache hits both show.
    """
    from repro.bench.harness import tile_specs

    specs = []
    for routine in ("gemm", "syr2k"):
        for lib in ("xkblas", "cublas-xt"):
            for n in (8192, 12288, 16384):
                specs.extend(tile_specs(lib, routine, n, tiles=(1024, 2048)))
    return specs


def bench_harness_sweep(parallel_jobs: int | None = HARNESS_JOBS) -> list[BenchResult]:
    """Wall time of the fixed slice: serial, parallel (optional), cache-warm.

    For ``kind="harness"`` results, ``events`` counts *cells* and
    ``events_per_s`` is cells/second.  The warm measurement re-submits the
    same batch to the serial executor, so it times pure cache-hit assembly —
    what a second experiment sharing the cells pays.
    """
    from repro.bench.executor import SweepExecutor

    specs = harness_slice_specs()

    def timed(executor, name):
        with executor as ex:
            t0 = time.perf_counter()
            ex.evaluate(specs)
            wall = time.perf_counter() - t0
            warm = None
            if name == "harness-sweep-serial":
                t0 = time.perf_counter()
                ex.evaluate(specs)
                warm = time.perf_counter() - t0
        results = [
            BenchResult(
                name=name, kind="harness", wall_s=wall,
                events=len(specs), events_per_s=len(specs) / wall,
            )
        ]
        if warm is not None:
            results.append(
                BenchResult(
                    name="harness-sweep-warm", kind="harness", wall_s=warm,
                    events=len(specs), events_per_s=len(specs) / warm,
                )
            )
        return results

    out = timed(SweepExecutor(jobs=1), "harness-sweep-serial")
    if parallel_jobs is not None and parallel_jobs > 1:
        out += timed(
            SweepExecutor(jobs=parallel_jobs),
            f"harness-sweep-jobs{parallel_jobs}",
        )
    return out


def harness_summary(results: list[BenchResult]) -> dict:
    """The ``harness`` entry recorded in ``BENCH_runtime.json``."""
    by_name = {r.name: r for r in results if r.kind == "harness"}
    serial = by_name.get("harness-sweep-serial")
    warm = by_name.get("harness-sweep-warm")
    parallel = by_name.get(f"harness-sweep-jobs{HARNESS_JOBS}")
    entry: dict = {
        "slice": "fig5: (gemm,syr2k) x (xkblas,cublas-xt) x (8192,12288,16384)"
                 " x nb(1024,2048)",
        "cells": serial.events if serial else None,
    }
    if serial:
        entry["serial_wall_s"] = serial.wall_s
    if parallel and serial:
        entry[f"jobs{HARNESS_JOBS}_wall_s"] = parallel.wall_s
        entry["parallel_speedup"] = round(serial.wall_s / parallel.wall_s, 3)
    if warm and serial:
        entry["cache_warm_wall_s"] = warm.wall_s
        entry["cache_warm_speedup"] = round(serial.wall_s / warm.wall_s, 1)
    return entry


# ------------------------------------------------------------------ suite


def run_suite(fast: bool = False, repeat: int = 1,
              large: bool | None = None) -> list[BenchResult]:
    """Run the full suite; with ``repeat`` > 1 the best wall time is kept.

    Repeats reduce host noise only — virtual-time fields are deterministic
    and identical across repeats by construction.  ``large`` selects the
    large-N streaming tier; the default runs it exactly when the full suite
    runs (the ``--fast`` CI smoke has its own dedicated large-smoke job).
    """
    if large is None:
        large = not fast
    # The full suite includes the fast points so a committed full baseline
    # always has the names a CI ``--fast`` run checks against.
    points = FAST_MACRO_POINTS if fast else FAST_MACRO_POINTS + MACRO_POINTS
    results: list[BenchResult] = []
    micro_sizes = (50_000,) if fast else (50_000, 200_000)
    micros = [lambda n=n: bench_engine_events(n) for n in micro_sizes]
    macros = [functools.partial(bench_macro, *point) for point in points]
    # The streamed macro point runs in both modes — it is the fast gate's
    # coverage of the large-tier code path (see STREAM_MACRO_POINT).
    macros.append(functools.partial(bench_macro_stream, *STREAM_MACRO_POINT))
    for thunk in micros + macros:
        best: BenchResult | None = None
        for _ in range(max(1, repeat)):
            res = thunk()
            if best is None or res.wall_s < best.wall_s:
                best = res
        assert best is not None
        results.append(best)
    # Harness sweep: serial + cache-warm always; the process-pool point only
    # in the full suite (CI's --fast smoke stays single-process).
    results.extend(bench_harness_sweep(parallel_jobs=None if fast else HARNESS_JOBS))
    if large:
        name, n, nb = LARGE_POINT
        results.extend(bench_large_gemm(name, n, nb))
    return results


def suite_to_json(results: list[BenchResult], fast: bool) -> dict:
    return {
        "schema": SCHEMA,
        "fast": fast,
        "host": {
            "python": sys.version.split()[0],
            "machine": host_platform.machine(),
        },
        "results": [r.to_json() for r in results],
    }


def render(results: list[BenchResult]) -> str:
    lines = [
        f"{'benchmark':28}  {'wall (s)':>9}  {'events':>8}  {'events/s':>10}  "
        f"{'ev/task':>7}  {'makespan (s)':>12}  {'peak MB':>8}"
    ]
    lines.append("-" * len(lines[0]))
    for r in results:
        mk = f"{r.makespan_s:.6f}" if r.makespan_s is not None else "-"
        pk = (f"{r.peak_mem_bytes / 1e6:.1f}"
              if r.peak_mem_bytes is not None else "-")
        ept = (f"{r.events_per_task:.2f}"
               if r.events_per_task is not None else "-")
        lines.append(
            f"{r.name:28}  {r.wall_s:9.3f}  {r.events:8d}  "
            f"{r.events_per_s:10.0f}  {ept:>7}  {mk:>12}  {pk:>8}"
        )
    return "\n".join(lines)


# -------------------------------------------------------------- comparison


def compare_to_baseline(
    results: list[BenchResult], baseline: dict, tolerance: float
) -> list[str]:
    """Regression check: events/s must not drop more than ``tolerance``.

    Events/second is used rather than raw wall time because the baseline may
    have been recorded on different hardware; it is still machine-dependent,
    so the CI gate uses a generous tolerance (default 30%).  Virtual-time
    fields (makespan, transfers) must match *exactly* when present — those
    are machine-independent, and a drift means determinism was broken.
    """
    failures: list[str] = []
    base_by_name = {r["name"]: r for r in baseline.get("results", [])}
    for res in results:
        base = base_by_name.get(res.name)
        if base is None:
            continue
        if res.kind == "harness":
            # Sweep wall times depend on core count and (for the warm point)
            # sub-millisecond timer noise; recorded for trajectory, not gated.
            continue
        if res.kind == "large":
            # The large tier is memory-gated (large_peak_gate), never
            # speed-gated: its rows are multi-minute points whose pace CI
            # should not depend on.
            continue
        floor = base["events_per_s"] * (1.0 - tolerance)
        if res.events_per_s < floor:
            failures.append(
                f"{res.name}: events/s regressed {base['events_per_s']:.0f} "
                f"-> {res.events_per_s:.0f} (>{tolerance:.0%} drop)"
            )
        if res.makespan_s is not None and "makespan_s" in base:
            if res.makespan_s != base["makespan_s"]:
                failures.append(
                    f"{res.name}: makespan drifted {base['makespan_s']!r} -> "
                    f"{res.makespan_s!r} (determinism broken)"
                )
        if res.transfers is not None and base.get("transfers") is not None:
            if res.transfers != base["transfers"]:
                failures.append(
                    f"{res.name}: transfer stats drifted {base['transfers']} "
                    f"-> {res.transfers}"
                )
    return failures


# -------------------------------------------------------------- profiling


def profile_macro(point: str | None = None, fast: bool = False) -> str:
    """cProfile one macro point; returns the top-30 report.

    ``point`` names any entry of :data:`MACRO_POINTS` or
    :data:`FAST_MACRO_POINTS`; ``None`` profiles the headline point (the
    first macro point, or the first fast point under ``fast``).  Only the
    timed run of :func:`measure_run` is profiled, in its configuration;
    the replays are left out.
    """
    import cProfile
    import io
    import pstats

    candidates = {p[0]: p for p in MACRO_POINTS + FAST_MACRO_POINTS}
    if point is None:
        name, routine, n, nb = (FAST_MACRO_POINTS if fast else MACRO_POINTS)[0]
    elif point in candidates:
        name, routine, n, nb = candidates[point]
    else:
        raise SystemExit(
            f"unknown benchmark point {point!r}; choose from "
            f"{', '.join(sorted(candidates))}"
        )
    run = functools.partial(_run_macro, routine, n, nb)
    prof = cProfile.Profile()
    with _recorder_off():
        prof.enable()
        _timed(run, iter)
        prof.disable()
    out = io.StringIO()
    stats = pstats.Stats(prof, stream=out).sort_stats("tottime")
    stats.print_stats(30)
    return f"profile: {name} ({routine}, n={n}, nb={nb})\n" + out.getvalue()


# -------------------------------------------------------------------- CLI


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.perfbench",
        description="Measure simulator wall-time performance (perf trajectory).",
    )
    parser.add_argument("--fast", action="store_true",
                        help="CI smoke subset (small sizes)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="repetitions per benchmark; best wall time kept")
    parser.add_argument("--skip-large", action="store_true",
                        help="omit the large-N streaming tier from a full run")
    parser.add_argument("--large-smoke", action="store_true",
                        help="run ONLY the reduced large-N point and gate its "
                             "completion + peak memory (the CI smoke job)")
    parser.add_argument("--peak-ceiling-mb", type=float, default=None,
                        help="absolute ceiling (MB) on the streamed peak in "
                             "--large-smoke mode")
    parser.add_argument("--output", metavar="PATH",
                        help="write results as JSON")
    parser.add_argument("--check-against", metavar="PATH",
                        help="fail on regression vs a recorded baseline JSON")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed events/s drop vs baseline (default 0.30)")
    parser.add_argument("--profile", nargs="?", const="__headline__",
                        default=None, metavar="NAME",
                        help="cProfile a macro point and exit (default: the "
                             "headline point; pass any macro benchmark name)")
    args = parser.parse_args(argv)

    if args.profile is not None:
        point = None if args.profile == "__headline__" else args.profile
        print(profile_macro(point=point, fast=args.fast))
        return 0

    if args.large_smoke:
        results = bench_large_gemm(*LARGE_SMOKE_POINT)
        print(render(results))
        if args.output:
            payload = suite_to_json(results, fast=False)
            Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
            print(f"wrote {args.output}")
        failures = large_peak_gate(results, ceiling_mb=args.peak_ceiling_mb)
        for failure in failures:
            print(f"MEMORY GATE: {failure}", file=sys.stderr)
        if failures:
            return 1
        streamed = results[0]
        print(f"large smoke ok: {streamed.tasks} tasks, streamed peak "
              f"{streamed.peak_mem_bytes / 1e6:.1f} MB vs materialized "
              f"{results[1].peak_mem_bytes / 1e6:.1f} MB")
        return 0

    results = run_suite(fast=args.fast, repeat=args.repeat,
                        large=False if args.skip_large else None)
    print(render(results))
    print("harness:", json.dumps(harness_summary(results)))

    gate_failures = large_peak_gate(results)
    for failure in gate_failures:
        print(f"MEMORY GATE: {failure}", file=sys.stderr)

    if args.output:
        payload = suite_to_json(results, fast=args.fast)
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")

    if args.check_against:
        baseline = json.loads(Path(args.check_against).read_text())
        failures = compare_to_baseline(results, baseline, args.tolerance)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"no regression vs {args.check_against} "
              f"(tolerance {args.tolerance:.0%})")
    return 1 if gate_failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
