"""Tests for the ASCII chart renderers."""

import pytest

from repro.viz import line_chart


def test_line_chart_basic():
    chart = line_chart(
        {"a": {1000: 10.0, 2000: 20.0}, "b": {1000: 5.0, 2000: None}},
        width=40,
        height=8,
        title="demo",
    )
    assert "demo" in chart
    assert "o=a" in chart and "x=b" in chart
    assert chart.count("o") >= 2  # both points of series a plotted
    assert chart.count("x") >= 1  # the None point skipped


def test_line_chart_empty():
    assert line_chart({}) == "(no data)"
    assert line_chart({"a": {1: None}}) == "(no data)"


def test_line_chart_overplot_marker():
    chart = line_chart({"a": {1: 5.0}, "b": {1: 5.0}}, width=10, height=4)
    assert "?" in chart


def test_line_chart_x_scaling_proportional():
    chart = line_chart({"a": {0: 1.0, 100: 1.0, 1000: 1.0}}, width=50, height=4)
    row = next(line for line in chart.splitlines() if "o" in line)
    first, mid, last = [col for col, ch in enumerate(row) if ch == "o"]
    assert last - first > 30  # full span used
    # Point at x=100 must sit near the left (10% of span), not the middle.
    assert (mid - first) / (last - first) == pytest.approx(0.1, abs=0.05)
