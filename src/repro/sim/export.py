"""Trace exporters.

Turns a :class:`~repro.sim.trace.TraceRecorder` into artifacts a person can
open elsewhere:

* :func:`to_chrome_trace` — Chrome/Perfetto trace-event JSON (open in
  ``chrome://tracing`` or https://ui.perfetto.dev), the closest analogue of
  the paper's nvprof timelines (Figs. 6/7/9);
* :func:`to_csv` — a flat CSV of intervals for spreadsheet/pandas analysis.
"""

from __future__ import annotations

import csv
import io
import json

from repro.sim.trace import TraceCategory, TraceRecorder

#: Track name per category in the Chrome trace (one row group per device).
_TRACK = {
    TraceCategory.KERNEL: "compute",
    TraceCategory.MEMCPY_HTOD: "copy-in",
    TraceCategory.MEMCPY_DTOH: "copy-out",
    TraceCategory.MEMCPY_PTOP: "peer",
    TraceCategory.MEMCPY_DTOD: "local",
    TraceCategory.HOST: "host",
}


def to_chrome_trace(trace: TraceRecorder) -> str:
    """Serialize a trace as Chrome trace-event JSON (complete 'X' events),
    virtual seconds scaled to the format's microseconds."""
    events = []
    for iv in trace:
        events.append(
            {
                "name": iv.label or iv.category.value,
                "cat": iv.category.value,
                "ph": "X",
                "ts": iv.start * 1e6,
                "dur": iv.duration * 1e6,
                "pid": 0,
                "tid": f"gpu{iv.device}/{_TRACK[iv.category]}"
                if iv.device >= 0
                else "host",
                "args": {"bytes": iv.nbytes} if iv.nbytes else {},
            }
        )
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}, indent=None)


def to_csv(trace: TraceRecorder) -> str:
    """Flat CSV: category, device, start, end, duration, bytes, label."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["category", "device", "start_s", "end_s", "duration_s", "bytes", "label"])
    for iv in trace:
        writer.writerow(
            [iv.category.value, iv.device, f"{iv.start:.9f}", f"{iv.end:.9f}",
             f"{iv.duration:.9f}", iv.nbytes, iv.label]
        )
    return buf.getvalue()


def write_chrome_trace(trace: TraceRecorder, path: str) -> None:
    """Convenience file writer for :func:`to_chrome_trace`."""
    with open(path, "w") as fh:
        fh.write(to_chrome_trace(trace))
