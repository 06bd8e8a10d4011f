"""Measurement harness.

``run_point`` executes one (library, routine, N, nb, scenario) cell on a
platform; ``best_over_tiles`` applies the paper's §IV-A methodology — "we only
report results with a tile size that maximizes performance among the
experimented tile sizes (1024, 2048, 4096) for each matrix dimension and
library", extended up to 16384 for cuBLAS-XT and SLATE.

Every best-tile search runs over :class:`~repro.bench.cellspec.PlatformHandle`
cells through the sweep executor — an in-process memo plus optional worker
pool and persistent cache (see :mod:`repro.bench.executor`).  ``run_point``
simulates one cell in this process, uncached: the executor's worker entry,
and the path for numeric runs, ``keep_runtime`` runs and hand-built
:class:`Platform` objects.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Sequence

from repro import config
from repro.bench.cellspec import CellSpec, PlatformHandle, as_handle
from repro.bench.executor import SweepExecutor, default_executor
from repro.bench.workloads import default_args, matrices_for
from repro.errors import BenchmarkError, LibraryError
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
    numeric: bool = False,
    keep_runtime: bool = False,
    k: int | None = None,
) -> LibraryResult:
    """Simulate one benchmark cell in this process, uncached, and return its
    :class:`LibraryResult` (``None`` means the paper's 8-GPU DGX-1)."""
    if platform is None or isinstance(platform, PlatformHandle):
        platform = as_handle(platform).build()
    lib = make_library(library, platform)
    mats = matrices_for(routine, n, k=k, numeric=numeric)
    args = default_args(routine)
    routine = routine.lower()
    kwargs = dict(nb=nb, scenario=scenario, keep_runtime=keep_runtime)
    if routine == "gemm":
        return lib.gemm(
            args["alpha"], mats["a"], mats["b"], args["beta"], mats["c"],
            transa=args["transa"], transb=args["transb"], **kwargs,
        )
    if routine == "symm":
        return lib.symm(
            args["side"], args["uplo"], args["alpha"], mats["a"], mats["b"],
            args["beta"], mats["c"], **kwargs,
        )
    if routine == "syrk":
        return lib.syrk(
            args["uplo"], args["trans"], args["alpha"], mats["a"],
            args["beta"], mats["c"], **kwargs,
        )
    if routine == "syr2k":
        return lib.syr2k(
            args["uplo"], args["trans"], args["alpha"], mats["a"], mats["b"],
            args["beta"], mats["c"], **kwargs,
        )
    if routine == "trmm":
        return lib.trmm(
            args["side"], args["uplo"], args["transa"], args["diag"],
            args["alpha"], mats["a"], mats["b"], **kwargs,
        )
    if routine == "trsm":
        return lib.trsm(
            args["side"], args["uplo"], args["transa"], args["diag"],
            args["alpha"], mats["a"], mats["b"], **kwargs,
        )
    if routine == "hemm":
        return lib.hemm(
            args["side"], args["uplo"], args["alpha"], mats["a"], mats["b"],
            args["beta"], mats["c"], **kwargs,
        )
    if routine == "herk":
        return lib.herk(
            args["uplo"], args["trans"], args["alpha"], mats["a"],
            args["beta"], mats["c"], **kwargs,
        )
    if routine == "her2k":
        return lib.her2k(
            args["uplo"], args["trans"], args["alpha"], mats["a"], mats["b"],
            args["beta"], mats["c"], **kwargs,
        )
    raise BenchmarkError(f"unknown routine {routine!r}")


@dataclasses.dataclass
class BestTileResult:
    """The best-performing tile size for one cell, per the paper's method."""

    result: LibraryResult
    tried: dict[int, float]  # nb -> TFlop/s

    @property
    def nb(self) -> int:
        return self.result.nb

    @property
    def tflops(self) -> float:
        return self.result.tflops


def tile_candidates(library: str, fast: bool = False) -> tuple[int, ...]:
    """§IV-A tile sizes; cuBLAS-XT and SLATE get the extended set."""
    if fast:
        return (2048, 4096)
    if library in ("cublas-xt", "slate"):
        return config.PAPER_TILE_SIZES_EXTENDED
    return config.PAPER_TILE_SIZES


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

    This is what lets experiments *enumerate* every cell up front and submit
    one batch to the executor: the candidate set is a pure function of the
    point, so enumeration and assembly agree by construction.
    """
    handle = as_handle(platform)
    if tiles is None:
        if scenario == "device":
            # §IV-C slackness rule plus a finer candidate for routines whose
            # dependency structure needs more parallelism (TRSM pivots).
            coarse = dod_tile_size(n, handle.gpus)
            tiles = tuple(dict.fromkeys((coarse, max(512, coarse // 2), 2048)))
        else:
            tiles = tile_candidates(library, fast=fast)
    # nb >= n yields no tiling; n/nb > 32 is pruned for tractability: tile
    # sizes yielding more than 32x32 output tiles never maximized performance
    # in our sweeps (kernel efficiency drops and runtime overhead grows), and
    # their task graphs are an order of magnitude larger to simulate.
    return tuple(
        CellSpec(
            library=library, routine=routine, n=n, nb=nb,
            scenario=scenario, platform=handle,
        )
        for nb in tiles
        if nb < n and n / nb <= 32
    )


def result_from_outcome(spec: CellSpec, outcome) -> LibraryResult:
    """Rebuild a (runtime-free) :class:`LibraryResult` from a cached outcome;
    deterministic library failures re-raise as the original error kind."""
    if not outcome.ok:
        raise LibraryError(outcome.error or f"{spec.library} failed")
    k = spec.n if spec.k is None else spec.k
    return LibraryResult(
        library=spec.library,
        routine=spec.routine,
        m=spec.n,
        n=spec.n,
        k=k,
        nb=spec.nb,
        seconds=outcome.seconds,
        flops=outcome.flops,
        scenario=spec.scenario,
    )


def best_over_tiles(
    library: str,
    routine: str,
    n: int,
    platform: PlatformHandle | None = None,
    scenario: str = "host",
    tiles: Sequence[int] | None = None,
    fast: bool = False,
    executor: SweepExecutor | None = None,
) -> BestTileResult:
    """Evaluate the cell at each candidate tile size and keep the fastest:
    the first strict maximum over the cells that succeeded, the same rule
    as the tuning service's ``pick_best``."""
    specs = tile_specs(
        library, routine, n, platform, scenario=scenario, tiles=tiles, fast=fast
    )
    if not specs:
        raise BenchmarkError(f"no valid tile size among {tiles} for N={n}")
    ex = executor if executor is not None else default_executor()
    outcomes = ex.evaluate(specs)
    tried: dict[int, float] = {}
    best_spec: CellSpec | None = None
    for spec in specs:
        outcome = outcomes[spec]
        if not outcome.ok:
            continue
        tried[spec.nb] = outcome.tflops
        if best_spec is None or outcome.tflops > outcomes[best_spec].tflops:
            best_spec = spec
    if best_spec is None:
        # Every tile failed the same deterministic way (unsupported routine,
        # allocation failure); surface it as the library error it is.
        first = outcomes[specs[0]]
        raise LibraryError(first.error or f"{library} failed for N={n}")
    return BestTileResult(
        result=result_from_outcome(best_spec, outcomes[best_spec]), tried=tried
    )


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


def safe_point(
    library: str,
    routine: str,
    n: int,
    platform: PlatformHandle | None = None,
    notes: list[str] | None = None,
    **kw,
) -> float | None:
    """Best-tile TFlop/s, or ``None`` for the figure's missing points
    (unsupported routines, BLASX allocation failures).

    A :class:`BenchmarkError` — no valid tile size for this (N, tiles)
    combination — also yields ``None`` instead of aborting the whole figure;
    when ``notes`` is given, the skip is recorded there so the missing point
    stays visible on the :class:`ExperimentResult`.
    """
    try:
        return best_over_tiles(library, routine, n, platform, **kw).tflops
    except LibraryError:
        return None
    except BenchmarkError as exc:
        if notes is not None:
            notes.append(f"skipped {library}/{routine} N={n}: {exc}")
        return None
