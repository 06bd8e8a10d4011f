"""Tests for the frozen cell descriptions (CellSpec / PlatformHandle)."""

import pytest

from repro.bench.cellspec import (
    DEFAULT_PLATFORM,
    CellOutcome,
    CellSpec,
    PlatformHandle,
    as_handle,
)
from repro.topology.dgx1 import make_dgx1


# ------------------------------------------------------------ cache keys


def test_cache_key_golden():
    # The key format is a persistence contract: changing it silently orphans
    # every record in users' .bench_cache stores, so pin it exactly.
    spec = CellSpec(library="xkblas", routine="gemm", n=8192, nb=1024)
    assert spec.cache_key() == "perf|dgx1x8|xkblas|gemm|n=8192|nb=1024|host"


def test_cache_key_covers_every_field():
    base = CellSpec(library="xkblas", routine="gemm", n=8192, nb=1024)
    variants = [
        CellSpec(library="slate", routine="gemm", n=8192, nb=1024),
        CellSpec(library="xkblas", routine="trsm", n=8192, nb=1024),
        CellSpec(library="xkblas", routine="gemm", n=4096, nb=1024),
        CellSpec(library="xkblas", routine="gemm", n=8192, nb=2048),
        CellSpec(library="xkblas", routine="gemm", n=8192, nb=1024, scenario="device"),
        CellSpec(library="xkblas", routine="gemm", n=8192, nb=1024,
                 platform=PlatformHandle("dgx1", 4)),
        CellSpec(library="xkblas", routine="gemm", n=8192, nb=1024,
                 mode="composition"),
    ]
    keys = {spec.cache_key() for spec in variants}
    assert len(keys) == len(variants)
    assert base.cache_key() not in keys


def test_specs_are_hashable_dict_keys():
    a = CellSpec(library="xkblas", routine="gemm", n=8192, nb=1024)
    b = CellSpec(library="xkblas", routine="gemm", n=8192, nb=1024)
    assert a == b and hash(a) == hash(b)
    assert len({a: 1, b: 2}) == 1


# ------------------------------------------------------------- platforms


def test_platform_handle_build_is_memoized():
    handle = PlatformHandle("dgx1", 4)
    assert handle.build() is PlatformHandle("dgx1", 4).build()
    assert handle.build().num_gpus == 4
    assert handle.key == "dgx1x4"


def test_platform_handle_unknown_factory():
    with pytest.raises(ValueError, match="unknown platform factory"):
        PlatformHandle("bgq", 8).build()


def test_as_handle_coercions():
    assert as_handle(None) == DEFAULT_PLATFORM
    handle = PlatformHandle("nvswitch", 8)
    assert as_handle(handle) is handle
    # A hand-built Platform cannot be described by a handle, so it cannot
    # be swept: the error points at the one-cell path.
    with pytest.raises(TypeError, match="run_point"):
        as_handle(make_dgx1(2))


# -------------------------------------------------------------- outcomes


def test_cell_outcome_json_round_trip():
    ok = CellOutcome(ok=True, tflops=12.5, seconds=0.25, flops=3.1e12)
    assert CellOutcome.from_json(ok.to_json()) == ok
    err = CellOutcome(ok=False, error="blasx: allocation failed")
    assert CellOutcome.from_json(err.to_json()) == err
    # None fields are omitted from the payload, not serialized as null.
    assert "tflops" not in err.to_json()
