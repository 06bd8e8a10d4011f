"""Tests for ``python -m repro.verify`` (:mod:`repro.verify.cli`)."""

import ast
import json
import shutil
from pathlib import Path

import pytest

import repro
from repro.verify import cli
from repro.verify.base import Finding

PACKAGE_ROOT = Path(repro.__file__).parent


def test_static_stages_pass_on_the_repository():
    assert cli.main(["--skip-runtime", "--fast"]) == 0


def test_py_only_package_copy_analyses_clean(tmp_path):
    """What ``setup.py build`` ships — the ``*.py`` files alone — verifies
    clean: every waiver lives in the sources, none in a data file."""
    dst = tmp_path / "repro"
    for path in PACKAGE_ROOT.rglob("*.py"):
        target = dst / path.relative_to(PACKAGE_ROOT)
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, target)
    assert cli.main(["--src", str(dst), "--skip-graph", "--skip-runtime"]) == 0


def test_static_run_parses_each_file_once(tmp_path, monkeypatch):
    """The lint, call graph, determinism and reclamation passes of one run
    share one parse of every file under ``--src``."""
    files = {
        "sim/engine.py": "def step(q):\n    return q.pop()\n",
        "runtime/sched.py": "class S:\n    def pop(self, q):\n        return q[0]\n",
        "bench/report.py": "def rows(xs):\n    return sorted(xs)\n",
        "topology/grid.py": "SIZE = 8\n",
        "config.py": "FLAG = True\n",
    }
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    parsed: list[str] = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(Path(filename).as_posix())
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    assert cli.main(["--src", str(tmp_path), "--skip-graph", "--skip-runtime"]) == 0
    assert sorted(parsed) == sorted(files)


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
