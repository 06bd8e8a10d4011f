"""``python -m repro.verify`` — run every verification pass over the project.

Five stages, any finding makes the exit status non-zero:

1. **lint** — the project AST rules of :mod:`repro.verify.lint` over the
   installed ``repro`` package sources (override with ``--src``);
2. **determinism** — the purity/determinism linter
   (:mod:`repro.verify.determinism`, whose decision-path rules use the
   call graph of :mod:`repro.verify.callgraph`) and the reclamation-safety
   pass (:mod:`repro.verify.reclaim`); a finding is suppressed only by a
   ``# det: <reason>`` comment on its line or the line above;
3. **graph** — build the task graphs of all six tiled BLAS-3 routines plus
   the TRSM+GEMM composition and certify them with the race/deadlock
   detector, pre-execution;
4. **runtime** — execute each of those graphs on a simulated platform with
   the coherence sanitizer enabled, then re-certify the executed graph
   (timing-aware), sweep the final coherence directory, lint the recorded
   trace, run the vector-clock race detector
   (:mod:`repro.verify.races`) over it, and lint a data-distribution phase
   with the topology-aware trace rules;
5. **streaming** — run the same workload through the reclaiming streaming
   path (``retain_tasks=False``) and race-check its trace (transfer-level:
   a reclaiming graph keeps no kernel access lists).

The two static stages always run and share one load of ``--src``
(:func:`~repro.verify.base.load_package`): each file is read and parsed
once per run.  ``--skip-graph`` drops stage 3, ``--skip-runtime`` stages 4
and 5.  ``--json FILE`` additionally writes the findings as
machine-readable JSON (``-`` for stdout); ``--github`` prints one
``::error`` workflow command per finding so CI runs annotate the offending
lines.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import repro
from repro import Runtime, RuntimeOptions
from repro.blas import routines as blas_routines, tiled
from repro.memory.layout import BlockCyclicDistribution, TilePartition, default_grid
from repro.memory.matrix import Matrix
from repro.runtime.dataflow import TaskGraph
from repro.topology.dgx1 import make_dgx1
from repro.verify.base import Finding, load_package, render_report
from repro.verify.coherence import check_directory
from repro.verify.determinism import lint_determinism
from repro.verify.graph import verify_graph
from repro.verify.lint import lint_package
from repro.verify.races import detect_races
from repro.verify.reclaim import lint_reclamation
from repro.verify.trace_lint import lint_trace

#: the six tiled BLAS-3 routines of the paper's Fig. 5, plus the composition.
ROUTINES = ("gemm", "symm", "syrk", "syr2k", "trmm", "trsm", "composition")
#: ``(matrix order, tile size)`` of the graph and runtime stages; ``--fast``
#: halves both, keeping a 4x4 tile grid.
PROBLEM = (256, 64)
FAST_PROBLEM = (128, 32)
#: simulated GPUs of the runtime stages.
GPUS = 4


def _partition(n: int, nb: int, name: str) -> TilePartition:
    return TilePartition(Matrix.meta(n, n, name=name), nb)


def build_tasks(routine: str, n: int, nb: int) -> list:
    """Submission-ordered task list of one routine (metadata matrices).

    Every builder runs with its routine-table defaults
    (:data:`repro.blas.routines.ROUTINES`) except ``beta=0.5``, which keeps
    the C chains RW.
    """
    operands = {name: _partition(n, nb, name.upper()) for name in ("a", "b", "c")}
    # The composition is a TRSM producing B, then a GEMM consuming it (§IV-F).
    first = "trsm" if routine == "composition" else routine
    if first not in ROUTINES:
        raise ValueError(f"unknown routine {routine!r}")
    row = blas_routines.ROUTINES[first]
    args = dict(row.defaults)
    if "beta" in args:
        args["beta"] = 0.5
    tasks = list(row.build(**args, **{name: operands[name] for name in row.operands}))
    if routine == "composition":
        d = _partition(n, nb, "D")
        tasks += tiled.build_gemm(1.0, operands["b"], operands["c"], 0.5, d)
    return tasks


def verify_built_graphs(n: int, nb: int) -> list[Finding]:
    """Stage 3: certify freshly built (unexecuted) graphs."""
    findings: list[Finding] = []
    for routine in ROUTINES:
        graph = TaskGraph()
        for task in build_tasks(routine, n, nb):
            graph.add(task)
        for f in verify_graph(graph):
            findings.append(
                Finding(f.pass_name, f.code, f"{routine}: {f.subject}", f.message)
            )
    return findings


def verify_executed_run(routine: str, n: int, nb: int, gpus: int) -> list[Finding]:
    """Stage 4 (per routine): run with the sanitizer on, then post-mortem."""
    platform = make_dgx1(gpus)
    rt = Runtime(platform, RuntimeOptions(verify_coherence=True))
    tasks = build_tasks(routine, n, nb)
    # Register the partitions so flushes see them, then submit and drain.
    for task in tasks:
        rt.submit(task)
    rt.sync()
    findings = verify_graph(rt.executor.graph)
    findings += check_directory(rt.directory, platform)
    evictions = sum(int(c.stats()["evictions"]) for c in rt.caches.values())
    findings += lint_trace(rt.trace, platform, evictions=evictions)
    findings += detect_races(rt.trace, rt.executor.graph)
    return [
        Finding(f.pass_name, f.code, f"{routine}: {f.subject}", f.message)
        for f in findings
    ]


def verify_streaming_run(
    routine: str, n: int, nb: int, gpus: int
) -> list[Finding]:
    """Stage 5: reclaiming streaming run; trace race check without a graph.

    ``retain_tasks=False`` retires every task on completion, so the detector
    sees transfers only — exactly the mode the reclamation-safety pass
    protects, exercised end to end.
    """
    platform = make_dgx1(gpus)
    rt = Runtime(
        platform,
        RuntimeOptions(
            verify_coherence=True, streaming=True, retain_tasks=False
        ),
    )
    rt.submit_stream(iter(build_tasks(routine, n, nb)))
    rt.sync()
    findings = check_directory(rt.directory, platform)
    findings += lint_trace(rt.trace, platform)
    findings += detect_races(rt.trace)
    return [
        Finding(
            f.pass_name, f.code, f"streaming-{routine}: {f.subject}", f.message
        )
        for f in findings
    ]


def verify_distribution_phase(n: int, nb: int, gpus: int) -> list[Finding]:
    """Stage 4 (extra): topology-aware trace rules on a distribution phase.

    A 2D block-cyclic upload is a queue-delay-free, kernel-free stream — the
    window in which the strict T006/T007 rules are exact.
    """
    platform = make_dgx1(gpus)
    rt = Runtime(platform, RuntimeOptions(verify_coherence=True))
    matrix = Matrix.meta(n, n, name="DIST")
    grid_p, grid_q = default_grid(gpus)
    dist = BlockCyclicDistribution(grid_p=grid_p, grid_q=grid_q)
    rt.distribute_2d_block_cyclic_async(matrix, nb, dist, upload=True)
    rt.sync()
    findings = lint_trace(rt.trace, platform, topology_aware=True)
    findings += check_directory(rt.directory, platform)
    return [
        Finding(f.pass_name, f.code, f"distribution: {f.subject}", f.message)
        for f in findings
    ]


#: static-pass subjects are ``relative/path.py:lineno``.
_SUBJECT_LINE = re.compile(r"^(?P<path>[\w./-]+\.py):(?P<line>\d+)$")


def github_annotations(findings: list[Finding], src: Path) -> list[str]:
    """One GitHub Actions workflow command per finding.

    Static findings (subject ``module.py:line``) annotate the exact file and
    line; dynamic findings become file-less error commands.
    """
    try:
        rel_src = src.resolve().relative_to(Path.cwd().resolve())
    except ValueError:
        rel_src = src
    out: list[str] = []
    for f in findings:
        # Workflow commands terminate at a newline; escape the message's.
        message = f"[{f.pass_name}:{f.code}] {f.message}".replace(
            "%", "%25"
        ).replace("\n", "%0A")
        match = _SUBJECT_LINE.match(f.subject)
        if match:
            path = (rel_src / match["path"]).as_posix()
            out.append(f"::error file={path},line={match['line']}::{message}")
        else:
            subject = f.subject.replace("%", "%25").replace("\n", "%0A")
            out.append(f"::error title={f.pass_name} {f.code}::{subject}: {message}")
    return out


def findings_json(findings: list[Finding], exit_code: int) -> dict:
    """The ``--json`` document: stable schema for CI tooling."""
    return {
        "schema": "repro.verify/1",
        "exit": exit_code,
        "count": len(findings),
        "findings": [
            {
                "pass": f.pass_name,
                "code": f.code,
                "subject": f.subject,
                "message": f.message,
            }
            for f in findings
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Static and dynamic verification of the repro stack.",
    )
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(repro.__file__).parent,
        help="package root to lint (default: the installed repro package)",
    )
    parser.add_argument("--skip-graph", action="store_true")
    parser.add_argument("--skip-runtime", action="store_true")
    parser.add_argument(
        "--fast", action="store_true", help="smaller problems (CI-friendly)"
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write findings as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--github",
        action="store_true",
        help="emit GitHub Actions ::error annotations per finding",
    )
    args = parser.parse_args(argv)
    n, nb = FAST_PROBLEM if args.fast else PROBLEM
    if not args.src.is_dir():
        parser.error(f"--src {args.src} is not a directory")

    findings: list[Finding] = []
    modules = load_package(args.src)
    lint = lint_package(modules)
    print(f"lint: {len(lint)} finding(s) over {args.src}")
    findings += lint
    analysis = lint_determinism(modules) + lint_reclamation(modules)
    print(f"determinism: {len(analysis)} unwaived finding(s)")
    findings += analysis
    if not args.skip_graph:
        graph_findings = verify_built_graphs(n, nb)
        print(
            f"graph: {len(graph_findings)} finding(s) over {len(ROUTINES)} "
            f"built graphs (n={n}, nb={nb})"
        )
        findings += graph_findings
    if not args.skip_runtime:
        runtime: list[Finding] = []
        for routine in ROUTINES:
            runtime += verify_executed_run(routine, n, nb, GPUS)
        runtime += verify_distribution_phase(n, nb, GPUS)
        print(
            f"runtime: {len(runtime)} finding(s) over {len(ROUTINES)} "
            f"sanitized runs + distribution phase ({GPUS} GPUs)"
        )
        findings += runtime
        streaming = verify_streaming_run("gemm", n, nb, GPUS)
        streaming += verify_streaming_run("composition", n, nb, GPUS)
        print(
            f"streaming: {len(streaming)} finding(s) over 2 reclaiming "
            "streamed runs"
        )
        findings += streaming

    exit_code = 1 if findings else 0
    if args.json is not None:
        document = json.dumps(findings_json(findings, exit_code), indent=2)
        if str(args.json) == "-":
            print(document)
        else:
            args.json.write_text(document + "\n", encoding="utf-8")
    if args.github:
        for line in github_annotations(findings, args.src):
            print(line)
    if findings:
        print(render_report(findings))
        return exit_code
    print("OK: all verification passes are clean")
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
