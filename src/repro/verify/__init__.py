"""Verification subsystem: machine-checks for the invariants the paper states
in prose.

Analysis passes plus runtime wiring:

* :mod:`repro.verify.graph` — task-graph race & deadlock detector over any
  built :class:`~repro.runtime.dataflow.TaskGraph` (RAW/WAR/WAW conflict
  ordering, cycles, predecessor-counter consistency);
* :mod:`repro.verify.coherence` — MOSI+in-flight protocol invariants over a
  :class:`~repro.memory.coherence.CoherenceDirectory`, as a one-shot check or
  as a runtime sanitizer (``RuntimeOptions.verify_coherence``);
* :mod:`repro.verify.trace_lint` — post-mortem linter replaying an
  nvprof-like :class:`~repro.sim.trace.TraceRecorder` stream;
* :mod:`repro.verify.races` — vector-clock happens-before race detector over
  the same traces: true conflict detection instead of rule checks;
* :mod:`repro.verify.lint` — project-specific AST rules over the sources,
  wall clocks (L001) and builtin ``hash()`` (L002) among them;
* :mod:`repro.verify.determinism` — purity/determinism linter with
  call-graph reachability (:mod:`repro.verify.callgraph`);
* :mod:`repro.verify.reclaim` — static reclamation-safety pass protecting
  the streaming (``retain_tasks=False``) mode's clear-on-complete contract.

The four static analyses share one loader
(:func:`~repro.verify.base.load_package`): every source file is read and
parsed once per run.  A determinism or reclamation finding is suppressed
only by a ``# det: <reason>`` comment on (or directly above) its line.

``python -m repro.verify`` runs everything and exits non-zero on findings
(``--json`` for machine output, ``--github`` for CI annotations).
"""

from repro.verify.base import Finding, load_package, raise_on_findings, render_report
from repro.verify.callgraph import CallGraph
from repro.verify.coherence import CoherenceSanitizer, check_directory, check_tile
from repro.verify.determinism import lint_determinism
from repro.verify.graph import verify_graph
from repro.verify.lint import lint_package
from repro.verify.races import detect_races
from repro.verify.reclaim import lint_reclamation
from repro.verify.trace_lint import lint_trace

__all__ = [
    "CallGraph",
    "CoherenceSanitizer",
    "Finding",
    "check_directory",
    "check_tile",
    "detect_races",
    "lint_determinism",
    "lint_package",
    "lint_reclamation",
    "lint_trace",
    "load_package",
    "raise_on_findings",
    "render_report",
    "verify_graph",
]
