"""Smoke tests for every experiment module at tiny scale.

The full/fast sweeps live in ``benchmarks/``; here each experiment's ``run``
just has to execute end-to-end on reduced inputs and produce a well-formed
:class:`ExperimentResult`.  Shape checks are *reported*, not asserted — tiny
sizes are outside their calibrated regime.
"""

from repro.bench.experiments import (
    EXPERIMENTS,
    fig2_bandwidth,
    fig3_heuristics,
    fig4_dod,
    fig5_libraries,
    fig6_gemm_trace,
    fig7_syr2k_trace,
    fig8_composition,
    fig9_gantt,
    table1_platform,
    table2_gain,
)
from repro.bench.harness import ExperimentResult
from repro.topology.device import GpuSpec
from repro.topology.link import Link, LinkKind
from repro.topology.platform import Platform

TINY = (4096, 8192)


def check(result):
    assert isinstance(result, ExperimentResult)
    assert result.rows
    assert result.columns
    assert result.render()
    assert isinstance(result.checks, dict)
    return result


def test_registry_covers_every_table_and_figure():
    paper = {
        "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5",
        "fig6", "fig7", "fig8", "fig9",
    }
    assert paper <= set(EXPERIMENTS)
    assert set(EXPERIMENTS) - paper == {"scaling"}  # the extension experiment


def test_table1_smoke():
    result = check(table1_platform.run())
    assert result.all_checks_pass  # platform description is exact, not tuned


def test_fig1_smoke():
    from repro.bench.experiments import fig1_topology

    result = check(fig1_topology.run())
    assert result.all_checks_pass  # wiring is exact


def test_fig1_checks_fail_without_nvlink():
    """The cube-mesh checks read the platform under test, not DGX-1 constants."""
    from repro.bench.experiments import fig1_topology

    plat = Platform(
        name="pcie-only",
        gpus=[GpuSpec()] * 8,
        pcie_switch_groups=[(0, 1), (2, 3), (4, 5), (6, 7)],
    )
    checks = check(fig1_topology.run(plat)).checks
    assert checks["any pair reachable in <= 1 NVLink hop (§II-B)"] is False
    assert checks["16 directed double + 16 single links"] is False
    assert not any(checks.values())


def test_fig1_board_connectivity_reads_each_pair_once_undirected():
    """A board link counts for both ends, read from the lower-numbered GPU."""
    from repro.bench.experiments.fig1_topology import _board_rings_connected

    def one_way(pairs):
        links = [Link(a, b, LinkKind.NVLINK_SINGLE) for a, b in pairs]
        return Platform(name="rings", gpus=[GpuSpec()] * 8, links=links)

    rings = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]
    assert _board_rings_connected(one_way(rings))
    assert not _board_rings_connected(one_way([(b, a) for a, b in rings]))
    assert not _board_rings_connected(one_way(rings[:2] + rings[3:]))  # GPU 3 cut off


def test_fig2_smoke():
    result = check(fig2_bandwidth.run(fast=True))
    assert result.all_checks_pass  # the bandwidth classes are exact too


def test_fig3_smoke():
    check(fig3_heuristics.run(fast=True, sizes=TINY, routines=("gemm",)))


def test_table2_smoke():
    check(table2_gain.run(fast=True, sizes=(16384,)))


def test_fig4_smoke():
    check(fig4_dod.run(fast=True, sizes=TINY, routines=("gemm",)))


def test_fig5_smoke():
    result = check(
        fig5_libraries.run(
            fast=True,
            sizes=TINY,
            routines=("gemm",),
            libraries=("xkblas", "cublas-xt", "blasx"),
        )
    )
    # Missing-point machinery reachable through the result grid.
    assert all(len(row) == len(result.columns) for row in result.rows)


def test_fig6_smoke():
    check(fig6_gemm_trace.run(n=8192, libraries=("xkblas", "cublas-xt")))


def test_fig7_smoke():
    check(fig7_syr2k_trace.run(n=8192, libraries=("chameleon-tile", "cublas-xt", "xkblas")))


def test_fig8_smoke():
    check(fig8_composition.run(sizes=TINY))


def test_fig9_smoke():
    check(fig9_gantt.run(n=8192))


def test_cli_single_experiment(capsys):
    from repro.bench.__main__ import main

    code = main(["table1"])
    out = capsys.readouterr().out
    assert "Table I" in out
    assert code == 0


def test_cli_writes_artifacts(tmp_path, capsys):
    from repro.bench.__main__ import main

    md = tmp_path / "results.md"
    csv_dir = tmp_path / "csv"
    code = main(["table1", "--markdown", str(md), "--csv-dir", str(csv_dir)])
    assert code == 0
    assert "### Table I" in md.read_text()
    assert (csv_dir / "table1.csv").exists()
