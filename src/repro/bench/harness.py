"""Measurement harness.

``run_point`` executes one (library, routine, N, nb, scenario) cell on a
platform; ``best_tiles`` applies the paper's §IV-A methodology — "we only
report results with a tile size that maximizes performance among the
experimented tile sizes (1024, 2048, 4096) for each matrix dimension and
library", extended up to 16384 for cuBLAS-XT and SLATE.

``best_tiles`` is the one best-tile search: it evaluates every cell of a
batch of points, over :class:`~repro.bench.cellspec.PlatformHandle` cells,
in one call to the sweep executor — an in-process memo plus optional worker
pool and persistent cache (see :mod:`repro.bench.executor`).  ``run_point``
simulates one perf-mode cell in this process, uncached: the executor's worker
entry, and the path for ``keep_runtime`` runs and hand-built
:class:`Platform` objects.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Sequence, TypeVar

from repro import config
from repro.bench.cellspec import CellOutcome, CellSpec, PlatformHandle, as_handle
from repro.bench.executor import SweepExecutor, default_executor
from repro.bench.workloads import matrices_for
from repro.errors import BenchmarkError
from repro.libraries.base import LibraryResult
from repro.libraries.registry import make_library
from repro.topology.platform import Platform


def dod_tile_size(n: int, num_gpus: int = 8) -> int:
    """The data-on-device tile rule of §IV-C: ``ceil(N / #GPUs)``-ish,
    chosen "to ensure enough parallel slackness"."""
    return max(256, int(math.ceil(n / num_gpus)))


def run_point(
    library: str,
    routine: str,
    n: int,
    nb: int,
    platform: Platform | PlatformHandle | None = None,
    scenario: str = "host",
    keep_runtime: bool = False,
) -> LibraryResult:
    """Simulate one benchmark cell in this process, uncached, and return its
    :class:`LibraryResult` (``None`` means the paper's 8-GPU DGX-1)."""
    if platform is None or isinstance(platform, PlatformHandle):
        platform = as_handle(platform).build()
    lib = make_library(library, platform)
    routine = routine.lower()
    return lib.call(routine, nb, scenario, keep_runtime, **matrices_for(routine, n))


#: One best-tile point: ``(library, routine, N, scenario)``.
Point = tuple[str, str, int, str]


@dataclasses.dataclass
class BestTileResult:
    """The winning cell of one best-tile point, per the paper's method."""

    spec: CellSpec
    outcome: CellOutcome

    @property
    def nb(self) -> int:
        return self.spec.nb

    @property
    def tflops(self) -> float:
        return self.outcome.tflops


def tile_candidates(library: str, fast: bool = False) -> tuple[int, ...]:
    """§IV-A tile sizes; cuBLAS-XT and SLATE get the extended set."""
    if fast:
        return (2048, 4096)
    if library in ("cublas-xt", "slate"):
        return config.PAPER_TILE_SIZES_EXTENDED
    return config.PAPER_TILE_SIZES


def _tile_ladder(
    library: str,
    n: int,
    handle: PlatformHandle,
    scenario: str,
    tiles: Sequence[int] | None,
    fast: bool,
) -> tuple[int, ...]:
    """The candidate tile sizes of one point, before pruning."""
    if tiles is not None:
        return tuple(tiles)
    if scenario == "device":
        # §IV-C slackness rule plus a finer candidate for routines whose
        # dependency structure needs more parallelism (TRSM pivots).
        coarse = dod_tile_size(n, handle.gpus)
        return tuple(dict.fromkeys((coarse, max(512, coarse // 2), 2048)))
    return tile_candidates(library, fast=fast)


def tile_specs(
    library: str,
    routine: str,
    n: int,
    platform: PlatformHandle | None = None,
    scenario: str = "host",
    tiles: Sequence[int] | None = None,
    fast: bool = False,
) -> tuple[CellSpec, ...]:
    """The cells one best-tile point expands to (§IV-A tile-size sweep).

    The candidate set is a pure function of the point, so a whole figure's
    cells can be enumerated up front and evaluated as one batch.  ``fast``
    only shrinks the data-on-host ladder; device cells follow §IV-C.
    """
    handle = as_handle(platform)
    # nb >= n yields no tiling; n/nb > 32 is pruned for tractability: tile
    # sizes yielding more than 32x32 output tiles never maximized performance
    # in our sweeps (kernel efficiency drops and runtime overhead grows), and
    # their task graphs are an order of magnitude larger to simulate.
    return tuple(
        CellSpec(
            library=library, routine=routine, n=n, nb=nb,
            scenario=scenario, platform=handle,
        )
        for nb in _tile_ladder(library, n, handle, scenario, tiles, fast)
        if nb < n and n / nb <= 32
    )


Cell = TypeVar("Cell")


def pick_best(cells: Iterable[Cell]) -> Cell | None:
    """The first strict maximum of ``tflops`` over the cells that succeeded.

    Cells are ranked in the order given, so a tie keeps the earlier one.
    Anything with ``ok`` and ``tflops`` ranks: the harness's executor
    outcomes and the tuning service's cell reports use this one rule.
    """
    best = None
    for cell in cells:
        if not cell.ok or cell.tflops is None:
            continue
        if best is None or cell.tflops > best.tflops:
            best = cell
    return best


def point_cells(
    points: Iterable[Point],
    platform: PlatformHandle | None = None,
    *,
    tiles: Sequence[int] | None = None,
    fast: bool = False,
    notes: list[str] | None = None,
) -> dict[Point, tuple[CellSpec, ...]]:
    """Each distinct point's :func:`tile_specs` cells, in point order.

    The one cell enumeration of a best-tile search: the sweeps'
    :func:`best_tiles` and the tuning service's queries both call it.  A
    point that admits no tile size maps to ``()`` and its skip is recorded
    in ``notes``, if given, naming the candidates it pruned.
    """
    handle = as_handle(platform)
    cells: dict[Point, tuple[CellSpec, ...]] = {}
    for point in dict.fromkeys(points):
        library, routine, n, scenario = point
        specs = cells[point] = tile_specs(
            library, routine, n, handle, scenario=scenario, tiles=tiles, fast=fast
        )
        if not specs and notes is not None:
            ladder = _tile_ladder(library, n, handle, scenario, tiles, fast)
            where = "" if scenario == "host" else f" ({scenario})"
            notes.append(
                f"skipped {library}/{routine} N={n}{where}: no admissible tile"
                f" size among {ladder} (needs nb < N and N/nb <= 32)"
            )
    return cells


def best_tiles(
    points: Iterable[Point],
    platform: PlatformHandle | None = None,
    *,
    fast: bool = False,
    tiles: Sequence[int] | None = None,
    executor: SweepExecutor | None = None,
    notes: list[str] | None = None,
) -> dict[Point, BestTileResult | None]:
    """Each point's best tile size, from one executor batch (§IV-A).

    The :func:`point_cells` of all points are evaluated in one
    :meth:`SweepExecutor.evaluate` call, and each point keeps
    :func:`pick_best` of its own cells in enumeration order.  A point maps
    to ``None`` when none of its cells succeeds (unsupported routine, BLASX
    allocation failure: the paper's missing points) or when it admits no
    tile size; the latter is recorded in ``notes``, if given, so the missing
    point stays visible on the figure.
    """
    cells = point_cells(points, platform, tiles=tiles, fast=fast, notes=notes)
    ex = executor if executor is not None else default_executor()
    outcomes = ex.evaluate(spec for specs in cells.values() for spec in specs)
    best: dict[Point, BestTileResult | None] = {}
    for point, specs in cells.items():
        ranked = {spec: outcomes[spec] for spec in specs}
        winner = pick_best(ranked.values())
        best[point] = None if winner is None else BestTileResult(
            spec=next(s for s, o in ranked.items() if o is winner),
            outcome=winner,
        )
    return best


def every_point(
    best: dict[Point, BestTileResult | None],
) -> dict[Point, BestTileResult]:
    """``best`` for a figure whose checks need every point: a missing point
    (no admissible tile, or no cell succeeded) is a :class:`BenchmarkError`."""
    missing = [point for point, found in best.items() if found is None]
    if missing:
        raise BenchmarkError(f"no best tile size for {missing}")
    return {point: found for point, found in best.items() if found is not None}


def best_over_tiles(
    library: str,
    routine: str,
    n: int,
    platform: PlatformHandle | None = None,
    scenario: str = "host",
    tiles: Sequence[int] | None = None,
    fast: bool = False,
    executor: SweepExecutor | None = None,
) -> BestTileResult | None:
    """:func:`best_tiles` for one point."""
    point = (library, routine, n, scenario)
    return best_tiles(
        [point], platform, fast=fast, tiles=tiles, executor=executor
    )[point]


@dataclasses.dataclass
class ExperimentResult:
    """Rendered outcome of one experiment: an id, rows, and shape checks."""

    experiment: str
    title: str
    columns: list[str]
    rows: list[list[object]]
    notes: list[str] = dataclasses.field(default_factory=list)
    checks: dict[str, bool] = dataclasses.field(default_factory=dict)

    def render(self) -> str:
        """Plain-text table in the style of the paper's figures."""
        widths = [
            max(len(str(col)), *(len(fmt_cell(row[i])) for row in self.rows))
            if self.rows
            else len(str(col))
            for i, col in enumerate(self.columns)
        ]
        lines = [f"== {self.experiment}: {self.title} =="]
        header = "  ".join(str(c).ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(fmt_cell(v).ljust(w) for v, w in zip(row, widths))
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        for name, ok in self.checks.items():
            lines.append(f"check [{'PASS' if ok else 'FAIL'}] {name}")
        return "\n".join(lines)

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())


def fmt_cell(v: object) -> str:
    """Canonical table-cell formatting shared by text, Markdown and CSV."""
    if isinstance(v, float):
        return f"{v:.2f}"
    return str(v)


def series_to_rows(
    sizes: Iterable[int], series: dict[str, dict[int, float | None]]
) -> list[list[object]]:
    """Columnar layout: one row per size, one column per series."""
    rows = []
    for n in sizes:
        row: list[object] = [n]
        for name in series:
            val = series[name].get(n)
            row.append("-" if val is None else val)
        rows.append(row)
    return rows

