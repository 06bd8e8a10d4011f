"""Tests for LAPACK memory views, including hypothesis properties."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import MemoryViewError
from repro.memory.view import MemoryView


def test_basic_geometry():
    v = MemoryView(m=100, n=50, ld=200, wordsize=8)
    assert v.shape == (100, 50)
    assert v.nelems == 5000
    assert v.payload_bytes == 40000
    assert v.span_bytes == (49 * 200 + 100) * 8


def test_invalid_views_rejected():
    with pytest.raises(MemoryViewError):
        MemoryView(m=10, n=10, ld=5)
    with pytest.raises(MemoryViewError):
        MemoryView(m=-1, n=10, ld=10)
    with pytest.raises(MemoryViewError):
        MemoryView(m=10, n=10, ld=10, wordsize=0)
    with pytest.raises(MemoryViewError):
        MemoryView(m=10, n=10, ld=10, offset=-1)


def test_subview_offsets_column_major():
    v = MemoryView(m=100, n=100, ld=100)
    sub = v.subview(10, 20, 30, 40)
    assert sub.shape == (30, 40)
    assert sub.ld == 100
    assert sub.offset == 20 * 100 + 10


def test_subview_of_subview_composes():
    v = MemoryView(m=100, n=100, ld=100)
    sub = v.subview(10, 10, 50, 50).subview(5, 5, 10, 10)
    assert sub.offset == 15 * 100 + 15


def test_subview_bounds_checked():
    v = MemoryView(m=10, n=10, ld=10)
    with pytest.raises(MemoryViewError):
        v.subview(5, 5, 6, 5)
    with pytest.raises(MemoryViewError):
        v.subview(-1, 0, 2, 2)


def test_element_offset():
    v = MemoryView(m=10, n=10, ld=20, offset=5)
    assert v.subview(2, 3, 1, 1).offset == 5 + 3 * 20 + 2
    with pytest.raises(MemoryViewError):
        v.subview(10, 0, 1, 1)


def test_overlap_detection_same_allocation():
    base = MemoryView(m=100, n=100, ld=100)
    a = base.subview(0, 0, 50, 50)
    b = base.subview(50, 50, 50, 50)
    c = base.subview(25, 25, 50, 50)
    assert not a.overlaps(b)
    assert a.overlaps(c) and c.overlaps(b)
    assert a.overlaps(a)


def test_empty_view_never_overlaps():
    base = MemoryView(m=10, n=10, ld=10)
    empty = MemoryView(m=0, n=0, ld=1)
    assert not base.overlaps(empty)


@st.composite
def views_and_subviews(draw):
    m = draw(st.integers(1, 64))
    n = draw(st.integers(1, 64))
    ld = draw(st.integers(m, 2 * m))
    row = draw(st.integers(0, m - 1))
    col = draw(st.integers(0, n - 1))
    sm = draw(st.integers(1, m - row))
    sn = draw(st.integers(1, n - col))
    return MemoryView(m=m, n=n, ld=ld), (row, col, sm, sn)


@given(views_and_subviews())
def test_property_subview_stays_inside_span(data):
    view, (row, col, sm, sn) = data
    sub = view.subview(row, col, sm, sn)
    assert sub.offset >= view.offset
    sub_end = sub.offset + (sub.n - 1) * sub.ld + sub.m
    view_end = view.offset + (view.n - 1) * view.ld + view.m
    assert sub_end <= view_end
    assert sub.payload_bytes <= view.payload_bytes


@given(views_and_subviews())
def test_property_disjoint_sibling_subviews_do_not_overlap(data):
    view, (row, col, sm, sn) = data
    sub = view.subview(row, col, sm, sn)
    # A sibling strictly to the right of sub, if it fits.
    if col + sn < view.n:
        sibling = view.subview(row, col + sn, sm, view.n - col - sn)
        assert not sub.overlaps(sibling)
        assert not sibling.overlaps(sub)
