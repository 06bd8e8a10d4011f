"""Tests for the point cache and its code-fingerprint invalidation."""

import sqlite3

from repro.bench.cache import PointCache, code_fingerprint
from repro.bench.cellspec import CellOutcome, CellSpec

SPEC = CellSpec(library="xkblas", routine="gemm", n=8192, nb=1024)
OUTCOME = CellOutcome(ok=True, tflops=40.0, seconds=0.1, flops=4e12)


def _tree(root, content):
    (root / "runtime").mkdir(parents=True)
    (root / "runtime" / "transfer.py").write_text(content)
    (root / "sim.py").write_text("TICK = 1\n")
    return (root / "runtime", root / "sim.py")


# ---------------------------------------------------------- fingerprints


def test_fingerprint_stable_for_identical_trees(tmp_path):
    roots_a = _tree(tmp_path / "a", "def pick(): return 0\n")
    roots_b = _tree(tmp_path / "b", "def pick(): return 0\n")
    assert code_fingerprint(roots_a) == code_fingerprint(roots_b)


def test_fingerprint_changes_when_source_edited(tmp_path):
    # The acceptance property: editing a simulated-behaviour tree (here a
    # stand-in for src/repro/runtime/) must produce a different fingerprint,
    # so records stored under the old one become unreachable.
    before = _tree(tmp_path / "a", "def pick(): return 0\n")
    after = _tree(tmp_path / "b", "def pick(): return 1\n")
    assert code_fingerprint(before) != code_fingerprint(after)


def test_fingerprint_of_real_package_is_memoized():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 64


def test_fingerprint_change_invalidates_cached_records(tmp_path):
    path = tmp_path / "points.sqlite"
    cache = PointCache(path)
    cache.put(SPEC, "fp-old", OUTCOME)
    reloaded = PointCache(path)
    assert reloaded.get(SPEC, "fp-old") == OUTCOME
    # Same spec under a new fingerprint: the stale record must not be served.
    assert reloaded.get(SPEC, "fp-new") is None


# -------------------------------------------------------- in-memory cache


def test_memory_cache_hit_miss_accounting():
    cache = PointCache()
    assert not cache.persistent
    assert cache.get(SPEC, "fp") is None
    cache.put(SPEC, "fp", OUTCOME)
    assert cache.get(SPEC, "fp") == OUTCOME
    # Hits only: a miss is a cell the executor simulates, counted there.
    assert cache.stats() == {"entries": 1, "memo_hits": 1, "store_hits": 0}


def test_get_memo_peeks_without_store_io(tmp_path):
    # The event-loop-safe half of a lookup: hits count like get's, misses
    # never touch the store.
    path = tmp_path / "points.sqlite"
    cache = PointCache(path)
    assert cache.get_memo(SPEC, "fp") is None
    other = PointCache(path)
    other.put(SPEC, "fp", OUTCOME)
    # The record exists in the shared store but not in this memo yet:
    # get_memo must stay blind to it, the full get must find it.
    assert cache.get_memo(SPEC, "fp") is None
    assert cache.get(SPEC, "fp") == OUTCOME
    assert cache.stats()["store_hits"] == 1
    assert cache.get_memo(SPEC, "fp") == OUTCOME
    assert cache.stats()["store_hits"] == 2
    cache.close()
    other.close()


def test_put_is_idempotent(tmp_path):
    cache = PointCache(tmp_path / "points.sqlite")
    cache.put(SPEC, "fp", OUTCOME)
    cache.put(SPEC, "fp", OUTCOME)
    assert len(cache.store) == 1
    assert len(cache) == 1


# ------------------------------------------------------- persistent store


def test_store_round_trip_and_hit_attribution(tmp_path):
    path = tmp_path / "cache" / "points.sqlite"
    writer = PointCache(path)
    writer.put(SPEC, "fp", OUTCOME)
    failed = CellSpec(library="blasx", routine="syrk", n=8192, nb=1024)
    writer.put(failed, "fp", CellOutcome(ok=False, error="unsupported"))

    reader = PointCache(path)
    assert len(reader) == 2
    assert reader.get(SPEC, "fp") == OUTCOME
    assert reader.get(failed, "fp").ok is False
    # Disk-loaded hits count as store hits, not memo hits.
    assert reader.stats()["store_hits"] == 2
    assert reader.stats()["memo_hits"] == 0


def test_corrupt_lines_are_skipped_not_fatal(tmp_path):
    # Rows whose payload is not JSON, is JSON null, or lacks "ok" must be
    # skipped on load (the cell re-simulates), never served or fatal.
    path = tmp_path / "points.sqlite"
    writer = PointCache(path)
    writer.put(SPEC, "fp", OUTCOME)
    writer.close()
    conn = sqlite3.connect(path)
    conn.executemany(
        "INSERT INTO points (key, fingerprint, outcome) VALUES (?, ?, ?)",
        [
            ("not-json", "fp", "not json at all"),
            ("null", "fp", "null"),
            ("no-ok", "fp", '{"tflops": 1.0}'),
        ],
    )
    conn.commit()
    conn.close()
    reader = PointCache(path)
    assert len(reader.store) == 4
    assert len(reader) == 1
    assert reader.get(SPEC, "fp") == OUTCOME
    reader.close()
