"""Tests for the nvprof-like trace recorder."""

import pytest
from hypothesis import given, strategies as st

from repro.bench.experiments.fig8_composition import run_composition
from repro.errors import SimulationError
from repro.sim.trace import TraceCategory, TraceRecorder
from repro.topology.dgx1 import make_dgx1


def make_trace():
    tr = TraceRecorder()
    tr.record(TraceCategory.MEMCPY_HTOD, 0, 0.0, 1.0, nbytes=100)
    tr.record(TraceCategory.KERNEL, 0, 1.0, 3.0)
    tr.record(TraceCategory.KERNEL, 1, 0.5, 2.5)
    tr.record(TraceCategory.MEMCPY_DTOH, 1, 2.5, 3.0, nbytes=50)
    return tr


def test_record_and_iterate():
    tr = make_trace()
    assert len(tr) == 4
    assert all(iv.duration >= 0 for iv in tr)


def test_disabled_recorder_drops_everything():
    tr = TraceRecorder(enabled=False)
    tr.record(TraceCategory.KERNEL, 0, 0.0, 1.0)
    assert len(tr) == 0
    # Every other read refuses: an empty answer would read as an idle run.
    reads = (
        lambda: list(tr),
        lambda: tr.filter(device=0),
        tr.makespan,
        tr.cumulative_by_category,
        tr.normalized_by_category,
        tr.transfer_share,
        tr.per_device_breakdown,
        lambda: tr.device_busy_time(0),
        lambda: tr.idle_gaps(0),
    )
    for read in reads:
        with pytest.raises(SimulationError, match="keep_runtime=True"):
            read()


def test_dropped_session_trace_refuses_a_kept_one_reads():
    # A composition whose runtime is dropped runs untraced: its trace must
    # not answer makespan 0 while the simulated clock reads ~19 ms.
    _, session = run_composition("xkblas", 4096, 1024, make_dgx1(8))
    assert session.runtime.sim.now > 0.0
    with pytest.raises(SimulationError, match="recorded no trace"):
        session.runtime.trace.makespan()
    _, kept = run_composition("xkblas", 4096, 1024, make_dgx1(8), keep_runtime=True)
    assert kept.runtime.trace.makespan() == kept.runtime.sim.now


def test_lazy_label_evaluated_when_enabled():
    tr = TraceRecorder()
    tr.record(TraceCategory.KERNEL, 0, 0.0, 1.0, label=lambda: "gemm[0,0]")
    assert list(tr)[0].label == "gemm[0,0]"


def test_lazy_label_not_evaluated_when_disabled():
    # The point of callable labels: a disabled recorder must never pay the
    # f-string cost — the hot path hands in thunks, not formatted strings.
    tr = TraceRecorder(enabled=False)
    calls = []

    def label():
        calls.append(1)
        return "never"

    tr.record(TraceCategory.KERNEL, 0, 0.0, 1.0, label=label)
    assert calls == []
    assert len(tr) == 0


def test_invalid_interval_rejected():
    tr = TraceRecorder()
    with pytest.raises(ValueError):
        tr.record(TraceCategory.KERNEL, 0, 2.0, 1.0)


def test_filter_by_category_and_device():
    tr = make_trace()
    assert len(tr.filter(category=TraceCategory.KERNEL)) == 2
    assert len(tr.filter(device=1)) == 2
    assert len(tr.filter(category=TraceCategory.KERNEL, device=1)) == 1


def test_cumulative_by_category():
    totals = make_trace().cumulative_by_category()
    assert totals[TraceCategory.KERNEL] == pytest.approx(4.0)
    assert totals[TraceCategory.MEMCPY_HTOD] == pytest.approx(1.0)
    assert totals[TraceCategory.MEMCPY_DTOH] == pytest.approx(0.5)


def test_normalized_sums_to_one():
    normalized = make_trace().normalized_by_category()
    assert sum(normalized.values()) == pytest.approx(1.0)


def test_normalized_empty_trace():
    assert TraceRecorder().normalized_by_category() == {}


def test_transfer_share():
    share = make_trace().transfer_share()
    assert share == pytest.approx(1.5 / 5.5)


def test_per_device_breakdown():
    breakdown = make_trace().per_device_breakdown()
    assert breakdown[0][TraceCategory.KERNEL] == pytest.approx(2.0)
    assert breakdown[1][TraceCategory.MEMCPY_DTOH] == pytest.approx(0.5)


def test_makespan():
    assert make_trace().makespan() == 3.0
    assert TraceRecorder().makespan() == 0.0


def test_device_busy_time_merges_overlaps():
    tr = TraceRecorder()
    tr.record(TraceCategory.KERNEL, 0, 0.0, 2.0)
    tr.record(TraceCategory.MEMCPY_HTOD, 0, 1.0, 3.0)  # overlaps the kernel
    tr.record(TraceCategory.KERNEL, 0, 5.0, 6.0)
    assert tr.device_busy_time(0) == pytest.approx(4.0)


def test_idle_gaps():
    tr = TraceRecorder()
    tr.record(TraceCategory.KERNEL, 0, 0.0, 1.0)
    tr.record(TraceCategory.KERNEL, 0, 3.0, 4.0)
    tr.record(TraceCategory.KERNEL, 0, 4.05, 5.0)
    gaps = tr.idle_gaps(0, min_gap=0.5)
    assert gaps == [(1.0, 3.0)]
    assert tr.idle_gaps(0, min_gap=0.01) == [(1.0, 3.0), (4.0, 4.05)]


def test_is_transfer_classification():
    assert TraceCategory.MEMCPY_PTOP.is_transfer
    assert not TraceCategory.KERNEL.is_transfer
    assert not TraceCategory.HOST.is_transfer


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.floats(min_value=0, max_value=100),
            st.floats(min_value=0, max_value=10),
        ),
        max_size=40,
    )
)
def test_property_busy_time_bounded_by_span(entries):
    tr = TraceRecorder()
    for dev, start, dur in entries:
        tr.record(TraceCategory.KERNEL, dev, start, start + dur)
    for dev in range(4):
        ivs = tr.filter(device=dev)
        busy = tr.device_busy_time(dev)
        total = sum(iv.duration for iv in ivs)
        span = (
            max(iv.end for iv in ivs) - min(iv.start for iv in ivs) if ivs else 0.0
        )
        assert busy <= total + 1e-9
        assert busy <= span + 1e-9
