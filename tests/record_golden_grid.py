"""Record ``tests/data/golden_grid.json``: a golden for every library
configuration the figures run.

The grid is every library of ``LIBRARIES`` × every routine of ``ROUTINES`` ×
{host, device} at N=8192, nb=1024 on the paper's 8-GPU DGX-1.  Beside it sit
Fig. 8's TRSM+GEMM composition cell for each of its two libraries, one XKBLAS
GEMM on a 16-GPU NVSwitch node (past the fabric's 12-GPU mask tables, so its
source pick walks bitmasks) and one on a 6-GPU Summit node.  Each cell
records its makespan as a float hex, the engine's ``events_fired``, the
completed task count and the transfer manager's ``stats()``, or the text of
the ``LibraryError`` it raises.

Every cell runs as production runs it: a library session that drops its
runtime, so untraced, on the folding submission pump.  Re-record only after a
deliberate model change, and say which cells moved::

    PYTHONPATH=src python -m tests.record_golden_grid

``tests/test_golden_grid.py`` replays every cell against the file.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.cellspec import CellSpec, PlatformHandle
from repro.bench.experiments.fig8_composition import (
    LIBRARIES as FIG8_LIBRARIES,
    NB as FIG8_NB,
    run_composition,
)
from repro.bench.workloads import matrices_for
from repro.blas.routines import ROUTINES
from repro.errors import LibraryError
from repro.libraries.registry import LIBRARIES, make_library

GRID_PATH = Path(__file__).parent / "data" / "golden_grid.json"
N, NB = 8192, 1024


def grid_cells() -> list[CellSpec]:
    """Every recorded cell, in file order."""
    cells = [
        CellSpec(library=lib, routine=routine, n=N, nb=NB, scenario=scenario)
        for lib in LIBRARIES
        for routine in ROUTINES
        for scenario in ("host", "device")
    ]
    cells += [
        CellSpec(library=lib, routine="trsm+gemm", n=N, nb=FIG8_NB,
                 mode="composition")
        for lib in FIG8_LIBRARIES
    ]
    cells += [
        CellSpec(library="xkblas", routine="gemm", n=N, nb=NB,
                 platform=PlatformHandle(factory, gpus))
        for factory, gpus in (("nvswitch", 16), ("summit", 6))
    ]
    return cells


def observe(spec: CellSpec) -> dict:
    """Run one cell and return what the golden file records for it."""
    platform = spec.platform.build()
    if spec.mode == "composition":
        _, session = run_composition(spec.library, spec.n, spec.nb, platform)
    else:
        # What ``lib.call`` does, keeping the session to read its runtime.
        session = make_library(spec.library, platform).session()
        try:
            output = session.call_async(
                spec.routine, spec.nb, spec.scenario,
                **matrices_for(spec.routine, spec.n),
            )
        except LibraryError as exc:
            return {"error": str(exc)}
        session.finish(spec.routine, spec.nb, spec.scenario, output)
    rt = session.runtime
    return {
        "makespan": rt.sim.now.hex(),
        "events_fired": rt.sim.events_fired,
        "tasks": rt.executor.completed_tasks,
        "transfers": rt.transfer.stats(),
    }


def main() -> None:
    cells = {spec.cache_key(): observe(spec) for spec in grid_cells()}
    GRID_PATH.write_text(json.dumps({"cells": cells}, indent=1) + "\n")
    errors = sum("error" in rec for rec in cells.values())
    print(f"wrote {len(cells)} cells ({errors} errors) to {GRID_PATH}")


if __name__ == "__main__":
    main()
