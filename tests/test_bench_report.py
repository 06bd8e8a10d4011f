"""Tests for the report writers and the CLI's --markdown/--csv-dir outputs."""

from repro.bench.__main__ import main
from repro.bench.harness import ExperimentResult, fmt_cell
from repro.bench.report import combined_markdown, to_csv, to_markdown


def _result():
    return ExperimentResult(
        experiment="Fig. X",
        title="demo sweep",
        columns=["N", "xkblas", "blasx"],
        rows=[[8192, 41.256, "-"], [16384, 52.5, 12.0]],
        notes=["blasx point missing: allocation failure"],
        checks={"shape holds": True},
    )


# ---------------------------------------------------------------- writers


def test_fmt_cell_formatting():
    assert fmt_cell(41.256) == "41.26"
    assert fmt_cell(8192) == "8192"
    assert fmt_cell("-") == "-"


def test_to_markdown_section():
    text = to_markdown(_result())
    assert "### Fig. X — demo sweep" in text
    assert "| N | xkblas | blasx |" in text
    assert "| 8192 | 41.26 | - |" in text
    assert "> blasx point missing: allocation failure" in text
    assert "- ✅ shape holds" in text


def test_to_csv_rows():
    lines = to_csv(_result()).splitlines()
    assert lines[0] == "N,xkblas,blasx"
    assert lines[1] == "8192,41.26,-"
    assert lines[2] == "16384,52.50,12.00"


def test_combined_markdown_concatenates():
    doc = combined_markdown([_result(), _result()], header="# All\n")
    assert doc.startswith("# All\n")
    assert doc.count("### Fig. X") == 2


# -------------------------------------------------------------------- CLI


def test_cli_writes_markdown_and_csv(tmp_path, capsys):
    md = tmp_path / "out.md"
    csv_dir = tmp_path / "csv"
    # table1 summarises the platform description: no simulation, so the CLI
    # plumbing is exercised without a sweep.
    rc = main(
        ["table1", "--fast", "--jobs", "1",
         "--markdown", str(md), "--csv-dir", str(csv_dir)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "sweep:" in out  # executor stats line always printed
    assert md.read_text().startswith("# Regenerated tables and figures")
    assert (csv_dir / "table1.csv").exists()


def test_cli_cache_flag_plumbs_through(tmp_path, capsys):
    rc = main(["table1", "--fast", "--jobs", "1", "--cache", str(tmp_path / "bc")])
    assert rc == 0
    assert "cache=" in capsys.readouterr().out


def test_persistent_cache_second_run_simulates_nothing(tmp_path):
    # The acceptance property end to end on a real (tiny) sweep: a second
    # invocation against the same store must simulate zero cells.
    from repro.bench.cache import PointCache
    from repro.bench.executor import SweepExecutor
    from repro.bench.harness import tile_specs

    path = tmp_path / "bc" / "points.sqlite"
    specs = tile_specs("xkblas", "gemm", 4096, tiles=(1024, 2048))
    with SweepExecutor(jobs=1, cache=PointCache(path)) as ex:
        first = ex.evaluate(specs)
        assert ex.cells_simulated == len(specs)
    with SweepExecutor(jobs=1, cache=PointCache(path)) as ex:
        second = ex.evaluate(specs)
        assert ex.cells_simulated == 0
        assert ex.stats()["store_hits"] == len(specs)
    assert second == first
