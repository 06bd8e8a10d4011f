"""Tests for the SQLite point store under concurrency and misuse.

The store contract the tuning service depends on: concurrent writer
*processes* lose no records (WAL with upsert-on-key), duplicate records
collapse, and a path that cannot hold a store fails with a typed error that
names it instead of a raw ``sqlite3``/``OSError`` traceback.
"""

from __future__ import annotations

import multiprocessing
import re

import pytest

from repro.bench.cache import PointCache, SqliteStore
from repro.bench.cellspec import CellOutcome, CellSpec
from repro.errors import BenchmarkError

SPEC = CellSpec(library="xkblas", routine="gemm", n=8192, nb=1024)
OUTCOME = CellOutcome(ok=True, tflops=40.0, seconds=0.1, flops=4e12)


# -------------------------------------------------------------- SQLite store


def test_sqlite_round_trip_and_upsert(tmp_path):
    store = SqliteStore(tmp_path / "points.sqlite")
    store.append(SPEC.cache_key(), "fp", OUTCOME.to_json())
    store.append(SPEC.cache_key(), "fp", OUTCOME.to_json())  # upsert, no dup
    assert len(store) == 1
    assert store.lookup(SPEC.cache_key(), "fp") == OUTCOME.to_json()
    assert store.lookup(SPEC.cache_key(), "other-fp") is None
    records = list(store.load())
    assert records == [(SPEC.cache_key(), "fp", OUTCOME.to_json())]
    store.close()


def test_sqlite_cache_round_trip_with_hit_attribution(tmp_path):
    path = tmp_path / "points.db"
    writer = PointCache(path)
    writer.put(SPEC, "fp", OUTCOME)
    writer.close()
    reader = PointCache(path)
    assert reader.get(SPEC, "fp") == OUTCOME
    assert reader.stats()["store_hits"] == 1
    # A different fingerprint must never serve the stale record.
    assert reader.get(SPEC, "fp-new") is None
    reader.close()


def test_sqlite_live_lookup_shares_writes_across_cache_instances(tmp_path):
    # Two caches over one database, as two server processes would hold:
    # a miss in B's memo re-checks the store and sees A's fresh write.
    path = tmp_path / "points.sqlite"
    cache_a = PointCache(path)
    cache_b = PointCache(path)  # loaded while the store was empty
    cache_a.put(SPEC, "fp", OUTCOME)
    assert cache_b.get(SPEC, "fp") == OUTCOME
    assert cache_b.stats() == {"entries": 1, "memo_hits": 0, "store_hits": 1}
    cache_a.close()
    cache_b.close()


# ------------------------------------------------------- multi-process writes

WRITERS = 4
RECORDS_PER_WRITER = 25


def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        pytest.skip("fork start method unavailable")


def _write_records(path: str, writer_idx: int) -> None:
    store = SqliteStore(path)
    for i in range(RECORDS_PER_WRITER):
        spec = CellSpec(
            library="xkblas", routine="gemm",
            n=1024 * (writer_idx + 1), nb=64 + i,
        )
        outcome = {"ok": True, "tflops": float(writer_idx * 1000 + i)}
        store.append(spec.cache_key(), "fp", outcome)
    store.close()


@pytest.mark.parametrize("filename", ["points.sqlite"])
def test_concurrent_writer_processes_lose_nothing(tmp_path, filename):
    path = tmp_path / filename
    ctx = _fork_context()
    procs = [
        ctx.Process(target=_write_records, args=(str(path), idx))
        for idx in range(WRITERS)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
        assert proc.exitcode == 0
    store = SqliteStore(path)
    records = {(key, fp): payload for key, fp, payload in store.load()}
    store.close()
    assert len(records) == WRITERS * RECORDS_PER_WRITER
    expected = {
        float(idx * 1000 + i)
        for idx in range(WRITERS)
        for i in range(RECORDS_PER_WRITER)
    }
    assert {payload["tflops"] for payload in records.values()} == expected


# ---------------------------------------------------------- unusable paths


@pytest.mark.parametrize("kind", ["json-text", "directory", "parent-is-file"])
def test_unusable_store_path_raises_benchmark_error(tmp_path, kind):
    path = tmp_path / "points.sqlite"
    if kind == "json-text":
        # e.g. a leftover JSON-lines store handed to --store
        path.write_text('{"key": "k", "fingerprint": "f", "outcome": {}}\n')
    elif kind == "directory":
        path.mkdir()
    else:
        (tmp_path / "file").write_text("")
        path = tmp_path / "file" / "points.sqlite"
    with pytest.raises(BenchmarkError, match=re.escape(str(path))):
        SqliteStore(path)
    with pytest.raises(BenchmarkError):
        PointCache(path)


def test_cli_reports_unusable_store_without_traceback(tmp_path, capsys):
    from repro.bench.__main__ import main

    (tmp_path / "bc" / "points.sqlite").mkdir(parents=True)
    assert main(["table1", "--cache", str(tmp_path / "bc")]) == 1
    assert capsys.readouterr().err.startswith("error: cannot open point store")
