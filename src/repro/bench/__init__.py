"""Benchmark harness regenerating every table and figure of the paper.

Each experiment module under :mod:`repro.bench.experiments` exposes
``run(...) -> ExperimentResult`` and renders the same rows/series the paper
reports.  ``python -m repro.bench <experiment> [--fast]`` runs one from the
command line; the ``benchmarks/`` pytest suite wraps the same entry points.

The simulator is deterministic, so a single run replaces the paper's mean of
8 repetitions (§IV-A) — there is no run-to-run variance to average away.
"""

from repro.bench.cache import PointCache, code_fingerprint
from repro.bench.cellspec import CellOutcome, CellSpec, PlatformHandle
from repro.bench.executor import SweepExecutor, default_executor, set_default_executor
from repro.bench.harness import (
    BestTileResult,
    ExperimentResult,
    best_over_tiles,
    best_tiles,
    dod_tile_size,
    fmt_cell,
    run_point,
    tile_specs,
)
from repro.bench.workloads import matrices_for, paper_sizes

__all__ = [
    "BestTileResult",
    "CellOutcome",
    "CellSpec",
    "ExperimentResult",
    "PlatformHandle",
    "PointCache",
    "SweepExecutor",
    "best_over_tiles",
    "best_tiles",
    "code_fingerprint",
    "default_executor",
    "dod_tile_size",
    "fmt_cell",
    "matrices_for",
    "paper_sizes",
    "run_point",
    "set_default_executor",
    "tile_specs",
]
