"""Tests for the simulator perf harness (:mod:`repro.bench.perfbench`)."""

import json

from repro.bench import perfbench
from repro.bench.perfbench import (
    BenchResult,
    bench_engine_events,
    bench_macro,
    compare_to_baseline,
    run_suite,
    suite_to_json,
)


def test_engine_micro_counts_every_event():
    res = bench_engine_events(num_events=2_000)
    # 64 seed events plus the respawned chain; the engine reports them all.
    assert res.events == 2_000 + 63
    assert res.kind == "micro"
    assert res.wall_s > 0.0
    assert res.events_per_s > 0.0


def test_macro_records_virtual_time_fields():
    res = bench_macro("macro-gemm-tiny", "gemm", n=2048, nb=512)
    assert res.kind == "macro"
    assert res.makespan_s is not None and res.makespan_s > 0.0
    assert res.tasks is not None and res.tasks > 0
    assert res.transfers is not None and res.transfers["h2d"] > 0
    assert res.events > 0


def test_full_suite_contains_the_fast_names(monkeypatch):
    """A committed full baseline must contain every name CI's --fast checks."""
    recorded = []

    def fake_micro(num_events=200_000):
        recorded.append(f"micro-{num_events}")
        return BenchResult(name=f"micro-engine-{num_events // 1000}k-events",
                           kind="micro", wall_s=1.0, events=num_events,
                           events_per_s=float(num_events))

    def fake_macro(name, routine, n, nb):
        recorded.append(name)
        return BenchResult(name=name, kind="macro", wall_s=1.0, events=10,
                           events_per_s=10.0, routine=routine, n=n, nb=nb,
                           makespan_s=0.5, tasks=4, transfers={"h2d": 1})

    def fake_harness(parallel_jobs=perfbench.HARNESS_JOBS):
        names = ["harness-sweep-serial", "harness-sweep-warm"]
        if parallel_jobs is not None and parallel_jobs > 1:
            names.append(f"harness-sweep-jobs{parallel_jobs}")
        return [BenchResult(name=n, kind="harness", wall_s=1.0, events=24,
                            events_per_s=24.0) for n in names]

    def fake_large(name, n, nb):
        recorded.append(name)
        return [BenchResult(name=f"{name}-{suffix}", kind="large", wall_s=1.0,
                            events=10, events_per_s=10.0, routine="gemm",
                            n=n, nb=nb, makespan_s=0.5, tasks=4,
                            peak_mem_bytes=1000)
                for suffix in ("stream", "retained")]

    def fake_stream(name, n, nb):
        recorded.append(name)
        return BenchResult(name=name, kind="macro", wall_s=1.0, events=10,
                           events_per_s=10.0, routine="gemm", n=n, nb=nb,
                           makespan_s=0.5, tasks=4, transfers={"h2d": 1})

    monkeypatch.setattr(perfbench, "bench_engine_events", fake_micro)
    monkeypatch.setattr(perfbench, "bench_macro", fake_macro)
    monkeypatch.setattr(perfbench, "bench_harness_sweep", fake_harness)
    monkeypatch.setattr(perfbench, "bench_large_gemm", fake_large)
    monkeypatch.setattr(perfbench, "bench_macro_stream", fake_stream)
    fast_names = {r.name for r in run_suite(fast=True)}
    full_names = {r.name for r in run_suite(fast=False)}
    assert fast_names <= full_names
    # The streamed macro point is part of the CI-gated fast subset: it is the
    # fast gate's coverage of the large-tier (streaming) code path.
    assert perfbench.STREAM_MACRO_POINT[0] in fast_names
    # The large tier belongs to the full suite only (the fast CI smoke has a
    # dedicated --large-smoke job).
    large_name = perfbench.LARGE_POINT[0]
    assert f"{large_name}-stream" in full_names
    assert f"{large_name}-retained" in full_names
    assert not any(n.startswith("large-") for n in fast_names)


def test_compare_flags_events_per_s_regression():
    baseline = {"results": [{"name": "x", "events_per_s": 1000.0}]}
    current = [BenchResult(name="x", kind="micro", wall_s=1.0,
                           events=100, events_per_s=500.0)]
    failures = compare_to_baseline(current, baseline, tolerance=0.30)
    assert len(failures) == 1 and "regressed" in failures[0]
    # Within tolerance: no failure.
    ok = [BenchResult(name="x", kind="micro", wall_s=1.0,
                      events=100, events_per_s=800.0)]
    assert compare_to_baseline(ok, baseline, tolerance=0.30) == []


def test_compare_flags_makespan_drift_as_determinism_break():
    baseline = {"results": [{
        "name": "m", "events_per_s": 10.0, "makespan_s": 0.5,
        "transfers": {"h2d": 3},
    }]}
    drifted = [BenchResult(name="m", kind="macro", wall_s=1.0, events=10,
                           events_per_s=10.0, makespan_s=0.5000001,
                           transfers={"h2d": 3})]
    failures = compare_to_baseline(drifted, baseline, tolerance=0.30)
    assert len(failures) == 1 and "determinism" in failures[0]
    bad_transfers = [BenchResult(name="m", kind="macro", wall_s=1.0, events=10,
                                 events_per_s=10.0, makespan_s=0.5,
                                 transfers={"h2d": 4})]
    failures = compare_to_baseline(bad_transfers, baseline, tolerance=0.30)
    assert len(failures) == 1 and "transfer stats" in failures[0]


def test_harness_sweep_slice_is_fixed_24_cells():
    specs = perfbench.harness_slice_specs()
    assert len(specs) == 24
    assert len(set(specs)) == 24  # all distinct -> nothing dedupes away


def test_harness_sweep_measures_serial_and_warm(monkeypatch):
    from repro.bench.harness import tile_specs

    # Shrink the slice so the measurement itself stays cheap in tests.
    monkeypatch.setattr(
        perfbench, "harness_slice_specs",
        lambda: list(tile_specs("xkblas", "gemm", 4096, tiles=(1024, 2048))),
    )
    results = perfbench.bench_harness_sweep(parallel_jobs=None)
    assert [r.name for r in results] == ["harness-sweep-serial", "harness-sweep-warm"]
    serial, warm = results
    assert serial.events == warm.events == 2
    assert warm.wall_s < serial.wall_s  # memo hits, no simulation
    summary = perfbench.harness_summary(results)
    assert summary["cells"] == 2
    assert summary["cache_warm_speedup"] > 1


def test_compare_does_not_gate_harness_points():
    # Sweep wall times are recorded for trajectory, never gated: a "slower"
    # harness point on different hardware must not fail CI.
    baseline = {"results": [{"name": "harness-sweep-serial",
                             "events_per_s": 1000.0}]}
    current = [BenchResult(name="harness-sweep-serial", kind="harness",
                           wall_s=10.0, events=24, events_per_s=2.4)]
    assert compare_to_baseline(current, baseline, tolerance=0.30) == []


def test_compare_does_not_gate_large_points():
    # Large rows are multi-minute points: the tier is memory-gated, never
    # speed-gated.
    baseline = {"results": [{"name": "large-gemm-n131072-stream",
                             "events_per_s": 1000.0, "makespan_s": 1.0}]}
    current = [BenchResult(name="large-gemm-n131072-stream", kind="large",
                           wall_s=100.0, events=10, events_per_s=0.1,
                           makespan_s=2.0)]
    assert compare_to_baseline(current, baseline, tolerance=0.30) == []


def test_large_peak_gate_enforces_ratio_and_ceiling():
    def pair(stream_peak, retained_peak):
        return [
            BenchResult(name="large-x-stream", kind="large", wall_s=1.0,
                        events=1, events_per_s=1.0,
                        peak_mem_bytes=stream_peak),
            BenchResult(name="large-x-retained", kind="large", wall_s=1.0,
                        events=1, events_per_s=1.0,
                        peak_mem_bytes=retained_peak),
        ]

    assert perfbench.large_peak_gate(pair(20, 100)) == []
    failures = perfbench.large_peak_gate(pair(30, 100))
    assert len(failures) == 1 and "streamed peak" in failures[0]
    # Absolute ceiling applies to the streamed point only.
    failures = perfbench.large_peak_gate(pair(20, 100), ceiling_mb=1e-5)
    assert len(failures) == 1 and "ceiling" in failures[0]
    assert perfbench.large_peak_gate(pair(20, 100), ceiling_mb=100.0) == []


def test_compare_ignores_unknown_benchmarks():
    baseline = {"results": [{"name": "only-in-baseline", "events_per_s": 1.0}]}
    current = [BenchResult(name="new-benchmark", kind="micro", wall_s=1.0,
                           events=1, events_per_s=0.001)]
    assert compare_to_baseline(current, baseline, tolerance=0.30) == []


def test_suite_json_round_trips():
    results = [BenchResult(name="x", kind="micro", wall_s=1.0,
                           events=5, events_per_s=5.0)]
    payload = suite_to_json(results, fast=True)
    decoded = json.loads(json.dumps(payload))
    assert decoded["schema"] == perfbench.SCHEMA
    assert decoded["fast"] is True
    assert decoded["results"][0]["name"] == "x"
    # None-valued macro fields are omitted from the JSON, not serialized.
    assert "makespan_s" not in decoded["results"][0]


def test_committed_baseline_matches_schema_and_has_headline():
    """BENCH_runtime.json at the repo root is the CI baseline; keep it sane."""
    from pathlib import Path

    path = Path(__file__).parent.parent / "BENCH_runtime.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["schema"] == perfbench.SCHEMA
    names = {r["name"] for r in payload["results"]}
    assert "macro-gemm-n32768" in names
    # Every fast-subset name CI checks must be present in the baseline.
    assert {n for n, *_ in perfbench.FAST_MACRO_POINTS} <= names
    assert perfbench.STREAM_MACRO_POINT[0] in names
    assert "micro-engine-50k-events" in names
    headline = payload["headline"]
    assert headline["before_wall_s"] / headline["after_wall_s"] >= 1.5
    # The large-N streaming tier is recorded with both peaks, and the
    # streamed run must hold the <= 25% acceptance ratio.
    by_name = {r["name"]: r for r in payload["results"]}
    large = perfbench.LARGE_POINT[0]
    streamed = by_name[f"{large}-stream"]
    retained = by_name[f"{large}-retained"]
    assert streamed["tasks"] == retained["tasks"] > 250_000
    ratio = streamed["peak_mem_bytes"] / retained["peak_mem_bytes"]
    assert ratio <= perfbench.LARGE_PEAK_RATIO
    # Large rows carry the per-event and phase columns (PR 10): regressions
    # in the large tier must be diagnosable from the recording alone.
    for row in (streamed, retained):
        assert row.get("events_per_task", 0) > 0
        assert row.get("engine_s", 0) > 0
        assert row.get("dispatch_s", 0) > 0
        assert row.get("transfer_path_s", 0) > 0
    # Every macro point records the peak-memory column.
    for name, *_ in perfbench.FAST_MACRO_POINTS + perfbench.MACRO_POINTS:
        assert by_name[name].get("peak_mem_bytes", 0) > 0, name
