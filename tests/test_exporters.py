"""Tests for trace exporters and report writers."""

import csv
import io
import json

from repro.bench.harness import ExperimentResult
from repro.bench.report import combined_markdown, to_csv as result_csv, to_markdown
from repro.sim.export import to_chrome_trace, to_csv, write_chrome_trace
from repro.sim.trace import TraceCategory, TraceRecorder


def sample_trace():
    tr = TraceRecorder()
    tr.record(TraceCategory.MEMCPY_HTOD, 0, 0.0, 1e-3, label="h2d T(0:0,0)", nbytes=1024)
    tr.record(TraceCategory.KERNEL, 0, 1e-3, 3e-3, label="gemm")
    tr.record(TraceCategory.MEMCPY_DTOH, 1, 2e-3, 2.5e-3, nbytes=512)
    return tr


def test_chrome_trace_roundtrips_as_json():
    doc = json.loads(to_chrome_trace(sample_trace()))
    events = doc["traceEvents"]
    assert len(events) == 3
    kernel = next(e for e in events if e["cat"] == "GPU Kernel")
    assert kernel["ph"] == "X"
    assert kernel["ts"] == 1e-3 * 1e6
    assert kernel["dur"] == 2e-3 * 1e6
    assert kernel["tid"] == "gpu0/compute"
    h2d = next(e for e in events if e["cat"] == "CUDA memcpy HtoD")
    assert h2d["args"]["bytes"] == 1024


def test_chrome_trace_file_writer(tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(sample_trace(), str(path))
    assert json.loads(path.read_text())["traceEvents"]


def test_csv_export_parses():
    rows = list(csv.DictReader(io.StringIO(to_csv(sample_trace()))))
    assert len(rows) == 3
    assert rows[0]["category"] == "CUDA memcpy HtoD"
    assert float(rows[1]["duration_s"]) == 2e-3
    assert int(rows[2]["bytes"]) == 512


def sample_result():
    return ExperimentResult(
        experiment="Fig. X",
        title="demo",
        columns=["N", "a", "b"],
        rows=[[1024, 1.5, "-"], [2048, 2.25, 3.0]],
        notes=["a note"],
        checks={"looks right": True, "broken": False},
    )


def test_markdown_report_structure():
    md = to_markdown(sample_result())
    assert "### Fig. X — demo" in md
    assert "| N | a | b |" in md
    assert "| 2048 | 2.25 | 3.00 |" in md
    assert "> a note" in md
    assert "✅ looks right" in md and "❌ broken" in md


def test_result_csv():
    rows = list(csv.reader(io.StringIO(result_csv(sample_result()))))
    assert rows[0] == ["N", "a", "b"]
    assert rows[1] == ["1024", "1.50", "-"]


def test_combined_markdown():
    doc = combined_markdown([sample_result(), sample_result()], header="# All")
    assert doc.startswith("# All")
    assert doc.count("### Fig. X") == 2


def test_runtime_trace_exports_end_to_end(dgx1_small):
    """A real run's trace exports without loss."""
    from repro.bench.harness import run_point

    res = run_point("xkblas", "gemm", 4096, 1024, dgx1_small, keep_runtime=True)
    tr = res.runtime.trace
    doc = json.loads(to_chrome_trace(tr))
    assert len(doc["traceEvents"]) == len(tr)
    rows = list(csv.DictReader(io.StringIO(to_csv(tr))))
    assert len(rows) == len(tr)
