"""Tests for ``python -m repro.verify`` (:mod:`repro.verify.cli`)."""

import json

import pytest

from repro.verify import cli
from repro.verify.base import Finding


def test_static_stages_pass_on_the_repository():
    assert cli.main(["--skip-runtime", "--fast"]) == 0


def test_cli_exit_code_and_report_on_findings(tmp_path, capsys):
    bad = tmp_path / "sim"
    bad.mkdir()
    (bad / "clock.py").write_text("import time\nNOW = time.time()\n", encoding="utf-8")
    assert cli.main(["--src", str(tmp_path), "--skip-graph", "--skip-runtime"]) == 1
    out = capsys.readouterr().out
    assert "L001" in out and "1 finding(s)" in out


def test_build_tasks_covers_every_routine():
    for routine in cli.ROUTINES:
        tasks = cli.build_tasks(routine, 64, 32)
        assert tasks and all(t.accesses for t in tasks)


def test_build_tasks_rejects_unknown_routine():
    with pytest.raises(ValueError):
        cli.build_tasks("cholesky", 64, 32)


def test_built_graphs_verify_clean_at_small_size():
    assert cli.verify_built_graphs(64, 32) == []


def test_executed_run_verifies_clean():
    assert cli.verify_executed_run("gemm", 64, 32, 2) == []


def test_distribution_phase_verifies_clean():
    assert cli.verify_distribution_phase(64, 32, 2) == []


def test_streaming_run_verifies_clean():
    assert cli.verify_streaming_run("gemm", 64, 32, 2) == []


# ------------------------------------------------- structured output & flags


def test_json_output_to_file_and_schema(tmp_path):
    report = tmp_path / "report.json"
    code = cli.main(
        ["--skip-graph", "--skip-runtime", "--json", str(report)]
    )
    assert code == 0
    data = json.loads(report.read_text(encoding="utf-8"))
    assert data["schema"] == "repro.verify/1"
    assert data["exit"] == 0 and data["count"] == 0 and data["findings"] == []


def test_json_output_to_stdout_carries_findings(tmp_path, capsys):
    bad = tmp_path / "sim"
    bad.mkdir()
    (bad / "clock.py").write_text(
        "import time\nNOW = time.time()\n", encoding="utf-8"
    )
    code = cli.main(
        ["--src", str(tmp_path), "--skip-graph", "--skip-runtime", "--json", "-"]
    )
    assert code == 1
    out = capsys.readouterr().out
    document = json.loads(out[out.index("{") : out.rindex("}") + 1])
    assert document["exit"] == 1 and document["count"] >= 1
    entry = document["findings"][0]
    assert set(entry) == {"pass", "code", "subject", "message"}


def test_github_annotations_static_and_dynamic(tmp_path):
    static = Finding("lint", "L001", "sim/clock.py:2", "wall clock")
    dynamic = Finding("races", "R001", "gemm: T(A:0,0)", "50%\nconflict")
    lines = cli.github_annotations([static, dynamic], tmp_path / "repro")
    assert lines[0].startswith("::error file=")
    assert "line=2" in lines[0] and "[lint:L001]" in lines[0]
    # Dynamic findings carry no file; newlines and % must be escaped.
    assert lines[1].startswith("::error title=races R001")
    assert "%0A" in lines[1] and "%25" in lines[1] and "\n" not in lines[1]


def test_github_flag_emits_annotations(tmp_path, capsys):
    bad = tmp_path / "sim"
    bad.mkdir()
    (bad / "clock.py").write_text(
        "import time\nNOW = time.time()\n", encoding="utf-8"
    )
    code = cli.main(
        ["--src", str(tmp_path), "--skip-graph", "--skip-runtime", "--github"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "::error file=" in out and "line=2" in out


def test_write_baseline_roundtrip(tmp_path, capsys):
    bad = tmp_path / "runtime"
    bad.mkdir()
    (bad / "g.py").write_text(
        "def f(xs):\n    return id(xs)\n", encoding="utf-8"
    )
    baseline = tmp_path / "baseline.json"
    # Fails without a baseline...
    assert (
        cli.main(
            [
                "--src", str(tmp_path),
                "--skip-lint", "--skip-graph", "--skip-runtime",
                "--baseline", str(baseline),
            ]
        )
        == 1
    )
    # ...--write-baseline pins the current findings and exits 0...
    assert (
        cli.main(
            ["--src", str(tmp_path), "--baseline", str(baseline), "--write-baseline"]
        )
        == 0
    )
    assert "1 fingerprint(s)" in capsys.readouterr().out
    # ...after which the same tree verifies clean.
    assert (
        cli.main(
            [
                "--src", str(tmp_path),
                "--skip-lint", "--skip-graph", "--skip-runtime",
                "--baseline", str(baseline),
            ]
        )
        == 0
    )
