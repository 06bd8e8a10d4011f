"""Command-line entry point: ``python -m repro.bench <experiment> [--fast]``.

Runs one (or ``all``) of the paper's experiments and prints the regenerated
rows/series plus the shape checks.  ``--fast`` shrinks the size sweeps for a
quick look; the full sweeps reproduce the paper's axes.

``--jobs N`` fans the sweep cells out over N worker processes (``--jobs 1``
is the serial path; any N produces byte-identical rows), and ``--cache [DIR]``
persists cell outcomes in the SQLite store ``DIR/points.sqlite`` (default
``DIR``: ``.bench_cache``) so a re-run simulates nothing that already ran
against the same source tree.  A store that cannot be opened, like any other
:class:`~repro.errors.ReproError`, prints ``error: ...`` and exits 1.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.bench.cache import PointCache
from repro.bench.executor import SweepExecutor, set_default_executor
from repro.bench.experiments import EXPERIMENTS
from repro.errors import ReproError


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures on the simulated DGX-1.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--fast", action="store_true", help="reduced size sweep (quick look)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sweep cells (default: cores-1; 1 = serial)",
    )
    parser.add_argument(
        "--cache",
        nargs="?",
        const=".bench_cache",
        default=None,
        metavar="DIR",
        help="persist cell outcomes across runs in the SQLite store "
             "DIR/points.sqlite (default DIR: .bench_cache)",
    )
    parser.add_argument(
        "--markdown",
        metavar="PATH",
        help="also write the results as one Markdown document",
    )
    parser.add_argument(
        "--csv-dir",
        metavar="DIR",
        help="also write each experiment's rows as <DIR>/<experiment>.csv",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="render size-sweep experiments as ASCII line charts",
    )
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run(args: argparse.Namespace) -> int:
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    cache = PointCache(Path(args.cache) / "points.sqlite" if args.cache else None)
    executor = SweepExecutor(jobs=args.jobs, cache=cache)
    # Install as the process default so every experiment — and the harness
    # helpers they call point by point — shares one memo: cells that several
    # experiments sweep (Fig 3 / Table II, Fig 5 / Fig 6) simulate once.
    previous = set_default_executor(executor)
    failed = 0
    results = []
    try:
        for name in names:
            t0 = time.time()
            result = EXPERIMENTS[name](fast=args.fast)
            results.append((name, result))
            print(result.render())
            if args.plot:
                chart = _sweep_chart(result)
                if chart:
                    print(chart)
            print(f"(completed in {time.time() - t0:.1f}s wall)\n")
            if not result.all_checks_pass:
                failed += 1
    finally:
        executor.close()
        cache.close()
        set_default_executor(previous)
    stats = executor.stats()
    print(
        f"sweep: {stats['cells_simulated']} cells simulated, "
        f"{stats['memo_hits']} memo hits, {stats['store_hits']} cache hits "
        f"(jobs={executor.jobs}"
        + (f", cache={args.cache})" if args.cache else ")")
    )
    if args.markdown:
        from repro.bench.report import combined_markdown

        with open(args.markdown, "w") as fh:
            fh.write(
                combined_markdown(
                    (r for _, r in results),
                    header="# Regenerated tables and figures\n",
                )
            )
        print(f"wrote {args.markdown}")
    if args.csv_dir:
        import os

        from repro.bench.report import to_csv

        os.makedirs(args.csv_dir, exist_ok=True)
        for name, result in results:
            path = os.path.join(args.csv_dir, f"{name}.csv")
            with open(path, "w") as fh:
                fh.write(to_csv(result))
        print(f"wrote {len(results)} CSV files to {args.csv_dir}")
    return 1 if failed else 0


def _sweep_chart(result) -> str | None:
    """ASCII line chart for results shaped as a size sweep (first col = N)."""
    if not result.rows or not result.columns or result.columns[0] != "N":
        return None
    from repro.viz import line_chart

    series: dict[str, dict[float, float | None]] = {}
    for col_idx, name in enumerate(result.columns[1:], start=1):
        series[str(name)] = {}
        for row in result.rows:
            value = row[col_idx]
            series[str(name)][float(row[0])] = (
                float(value) if isinstance(value, (int, float)) else None
            )
    # Keep charts readable: at most 8 series per chart.
    names = list(series)
    chunks = [names[i : i + 8] for i in range(0, len(names), 8)]
    charts = [
        line_chart(
            {n: series[n] for n in chunk},
            title=f"{result.experiment} (TFlop/s vs N)",
            ylabel="matrix dimension N",
        )
        for chunk in chunks
    ]
    return "\n\n".join(charts)


if __name__ == "__main__":
    sys.exit(main())
