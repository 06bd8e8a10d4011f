"""End-to-end benchmark of the simulator: long simulated BLAS calls.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload trsm_ws --seed 1 --seconds 30 --trace 0

One run builds the workload's inputs from ``--seed`` (see ``workloads.py``),
then measures:

* ``setup_s`` — cold set-up over several fresh interpreters
  (``setup_probe.py``): package import, runtime construction, operand
  partitioning;
* ``op_ref_s`` — host CPU seconds of one whole op (task building,
  submission, simulation, final write-back), repeated for ``--seconds``
  after one untimed warm-up op.  The op is single-threaded and never
  waits, so on a dedicated core its CPU time is its wall time; on a shared
  virtual machine CPU time leaves out the time the hypervisor gives to
  other guests, which wall time does not.  Each op gets a fresh runtime;
  the cyclic garbage collector is paused inside the op and run between
  ops, so a collection of the previous op's task graph is never billed to
  the next;
* ``peak_rss_mb`` — the process's peak resident memory through the
  warm-up op.

Both times are reported at the reference speed (``calibrate.py``): the
reference kernel runs before the first op and after every op (in each
set-up interpreter, after the set-up), and a time is the total CPU time of
the ops divided by that of the reference calls, times
:data:`calibrate.REFERENCE_S`.  The host's speed drifts by a third or more
between runs as other guests come and go; the ratio of the two totals
cancels most of that drift and keeps the program's own cost.

With ``--trace 1`` it instead alternates plain and traced ops (see
``layers.py``) and reports per-layer self times, call counts, the tracing
overhead and the program's own counters; the spans go to
``.bench_out/<workload>-seed<seed>.trace.json``.

Every op's virtual-time outcome is checked against the warm-up op's bit for
bit, and a numeric guard run checks the routine's output exactly (see
``workloads.py``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, reference_cpu_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: fresh-interpreter set-up samples per run.
SETUP_REPS = 5
SETUP_TIMEOUT_S = 60


def _load_workloads():
    """Import the workloads against this checkout's sources, or exit."""
    if not (SRC / "repro").is_dir():
        sys.exit(f"no package sources at {SRC / 'repro'}: run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"imported repro from {repro.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    return WORKLOADS


def at_reference_speed(cpu_s: list[float], reference_s: list[float]) -> float:
    """Mean of ``cpu_s`` at the reference speed, given the reference
    kernel's times measured alongside."""
    return REFERENCE_S * statistics.fmean(cpu_s) / statistics.fmean(reference_s)


def reference_now() -> float:
    """One reference-kernel time, with the previous op's garbage collected."""
    gc.collect()
    return reference_cpu_s()


def cold_setup_s(workload: str, seed: int) -> float:
    """Set-up time over :data:`SETUP_REPS` fresh interpreters."""
    setups, references = [], []
    for _ in range(SETUP_REPS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        setup, reference = map(float, out.stdout.split()[-2:])
        setups.append(setup)
        references.append(reference)
    print(f"set-up CPU s median {statistics.median(setups):.4f} "
          f"[{min(setups):.4f}, {max(setups):.4f}]", file=sys.stderr)
    return at_reference_speed(setups, references)


class Runner:
    """Runs ops of one workload and keeps the correctness tally."""

    def __init__(self, workload) -> None:
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = None

    def op(self, tracer=None):
        """One op on a fresh runtime: (CPU s, wall s, fingerprint) or None."""
        self.attempted += 1
        try:
            prep = self.w.prepare()
            wrap = tracer.tasks if tracer is not None else None
            gc.collect()
            gc.disable()
            try:
                c0, t0 = time.process_time(), time.perf_counter()
                fp = self.w.run(prep, wrap)
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
            finally:
                gc.enable()
        except Exception as exc:  # a failed op is counted, the run goes on
            self.failed += 1
            self.problems.append(f"op {self.attempted} raised {exc!r}")
            return None
        if self.reference is None:
            self.reference = fp
            self.problems += self.w.check_fingerprint(fp)
        elif fp != self.reference:
            self.failed += 1
            self.problems.append(f"op {self.attempted} drifted: {fp} != {self.reference}")
            return None
        return cpu, wall, fp

    def guard(self) -> None:
        try:
            self.problems += self.w.numeric_guard()
        except Exception as exc:
            self.problems.append(f"numeric guard raised {exc!r}")

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not self.problems and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(runner: Runner, seconds: float, setup_s: float) -> dict:
    runner.op()  # warm-up: lazy imports and memo tables; sets the reference
    # Read before the reference kernel first runs: its working set, stacked
    # on the heap the ops leave fragmented, would add a few MB that vary.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference_now()
    cpus, walls, references = [], [], [reference_now()]
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or not cpus:
        done = runner.op()
        references.append(reference_now())
        if done is None:
            if runner.failed > 3 * (len(cpus) + 1):
                break  # failing every time: stop early, the run is incorrect
            continue
        cpus.append(done[0])
        walls.append(done[1])
    runner.guard()
    med = statistics.median
    if cpus:
        print(f"{len(cpus)} timed ops: CPU s median {med(cpus):.4f} "
              f"[{min(cpus):.4f}, {max(cpus):.4f}], wall s median "
              f"{med(walls):.4f} [{min(walls):.4f}, {max(walls):.4f}]; "
              f"reference kernel CPU s median {med(references):.4f} "
              f"[{min(references):.4f}, {max(references):.4f}]",
              file=sys.stderr)
    return {
        "op_ref_s": _metric(at_reference_speed(cpus, references) if cpus else 0.0, "s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }


def measure_traced(runner: Runner, seconds: float, trace_path: Path) -> dict:
    from layers import LAYERS, LayerTracer

    runner.op()
    tracer = LayerTracer()
    plain_cpu, plain_wall, traced_cpu, selfs, calls, others = [], [], [], [], [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or not traced_cpu:
        done = runner.op()
        if done is not None:
            plain_cpu.append(done[0])
            plain_wall.append(done[1])
        before_ns, before_calls = dict(tracer.self_ns), dict(tracer.calls)
        with tracer:
            done = runner.op(tracer)
        tracer.op += 1
        if done is None:
            if runner.failed > 3 * (len(traced_cpu) + 1):
                break
            continue
        traced_cpu.append(done[0])
        op_self = {k: (tracer.self_ns[k] - before_ns[k]) / 1e6 for k in LAYERS}
        selfs.append(op_self)
        calls.append({k: tracer.calls[k] - before_calls[k] for k in LAYERS})
        others.append(done[1] * 1e3 - sum(op_self.values()))
    runner.guard()
    tracer.write_chrome_trace(trace_path)
    print(f"{len(traced_cpu)} traced ops; spans in {trace_path}", file=sys.stderr)
    if not traced_cpu or not plain_cpu:
        return {}

    med = statistics.median
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}_self_ms"] = _metric(med(s[layer] for s in selfs), "ms")
    for layer in LAYERS:
        metrics[f"{layer}_calls"] = _metric(med(c[layer] for c in calls), "count")
    metrics["other_self_ms"] = _metric(med(others), "ms")
    metrics["untraced_op_cpu_s"] = _metric(med(plain_cpu), "s")
    metrics["untraced_op_wall_s"] = _metric(med(plain_wall), "s")
    metrics["traced_op_cpu_s"] = _metric(med(traced_cpu), "s")
    metrics["trace_overhead_ratio"] = _metric(med(traced_cpu) / med(plain_cpu), "ratio")

    fp = runner.reference
    w = runner.w
    transfers = dict(fp.transfers)
    accesses = fp.hits + fp.misses
    metrics.update({
        "engine_events": _metric(fp.events, "count"),
        "events_per_task": _metric(fp.events / fp.tasks, "ratio"),
        "evictions": _metric(fp.evictions, "count"),
        "cache_hit_rate": _metric(fp.hits / accesses if accesses else 0.0, "ratio"),
        "h2d_transfers": _metric(transfers["h2d"], "count"),
        "p2p_transfers": _metric(transfers["p2p"], "count"),
        "d2h_transfers": _metric(transfers["d2h"], "count"),
        "sim_makespan_s": _metric(fp.makespan, "s"),
        "sim_tflops": _metric(w.flops() / fp.makespan / 1e12, "TFLOP/s"),
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = _load_workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads)}")
    runner = Runner(workloads[args.workload](args.seed))
    if args.trace:
        trace_path = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}.trace.json"
        metrics = measure_traced(runner, args.seconds, trace_path)
    else:
        setup_s = cold_setup_s(args.workload, args.seed)
        metrics = measure(runner, args.seconds, setup_s)
    for problem in runner.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(runner.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
