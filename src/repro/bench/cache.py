"""Cross-experiment point cache over a persistent SQLite store.

Every sweep cell is a pure function of its :class:`~repro.bench.cellspec.CellSpec`
*and of the simulator's source code*, so an outcome can be memoized within a
process and persisted across invocations — provided staleness is impossible.
:func:`code_fingerprint` hashes the source of every package whose behaviour
feeds a makespan (``sim``, ``runtime``, ``memory``, ``topology``, ``blas``,
``libraries``, plus the model constants in ``config.py``); the fingerprint is
part of every stored record, so editing any of those files silently
invalidates all prior results instead of serving stale numbers.

Persistence is one :class:`SqliteStore`: a WAL-mode SQLite table with
upsert-on-key semantics, so sweep invocations and long-running tuning servers
alike share one warm corpus — concurrent writer processes lose nothing,
duplicate records from two processes racing on the same cold cell collapse
to one row, and misses re-check the database live (another process may have
filled the cell meanwhile).  Rows whose payload is not a valid outcome are
skipped, not fatal: the cell is simply simulated again.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
from pathlib import Path
from typing import Iterator

from repro.bench.cellspec import CellOutcome, CellSpec
from repro.errors import BenchmarkError

#: Source trees whose code determines every simulated outcome.
FINGERPRINT_SUBDIRS = ("sim", "runtime", "memory", "topology", "blas", "libraries")

_fingerprint_memo: dict[tuple[Path, ...], str] = {}


def _package_roots() -> tuple[Path, ...]:
    import repro

    pkg = Path(repro.__file__).parent
    return tuple(pkg / sub for sub in FINGERPRINT_SUBDIRS) + (pkg / "config.py",)


def code_fingerprint(roots: tuple[Path, ...] | None = None) -> str:
    """Stable digest of the simulation-relevant source files.

    ``roots`` (directories or single files) defaults to the installed
    package's trees; it is injectable so tests can fingerprint synthetic
    trees and prove the edit-invalidates-cache property cheaply.
    """
    roots = _package_roots() if roots is None else tuple(roots)
    memo = _fingerprint_memo.get(roots)
    if memo is not None:
        return memo
    digest = hashlib.sha256()
    for root in roots:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            if not path.is_file():
                continue
            rel = path.relative_to(root.parent)
            digest.update(str(rel).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    result = digest.hexdigest()
    _fingerprint_memo[roots] = result  # det: memo of the source digest, no decision input
    return result


# ---------------------------------------------------------------------- store


class SqliteStore:
    """The persistent point store: ``(key, fingerprint, outcome-payload)``
    rows in SQLite (WAL mode, upsert-on-key).

    WAL journaling lets readers proceed while a writer commits, and the
    primary key upsert makes appends idempotent — the properties a fleet of
    tuning-server processes sharing one warm corpus needs.  The connection is
    shared across threads behind a lock; cross-process contention is resolved
    by SQLite's own locking with a generous busy timeout.  A path that cannot
    hold the database (a directory, a file that is not SQLite, a parent that
    is a file) raises :class:`~repro.errors.BenchmarkError` naming it.
    """

    _SCHEMA = (
        "CREATE TABLE IF NOT EXISTS points ("
        " key TEXT NOT NULL,"
        " fingerprint TEXT NOT NULL,"
        " outcome TEXT NOT NULL,"
        " PRIMARY KEY (key, fingerprint))"
    )
    _UPSERT = (
        "INSERT INTO points (key, fingerprint, outcome) VALUES (?, ?, ?)"
        " ON CONFLICT(key, fingerprint) DO UPDATE SET outcome = excluded.outcome"
    )

    def __init__(self, path: Path | str) -> None:
        path = Path(path)
        conn = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(path, timeout=30.0, check_same_thread=False)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(self._SCHEMA)
            conn.commit()
        except (OSError, sqlite3.Error) as exc:
            if conn is not None:
                conn.close()
            raise BenchmarkError(f"cannot open point store {path}: {exc}") from exc
        self._conn = conn
        self._lock = threading.Lock()

    def load(self) -> Iterator[tuple[str, str, dict]]:
        """Yield every stored ``(key, fingerprint, payload)`` whose payload
        parses as JSON."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT key, fingerprint, outcome FROM points"
            ).fetchall()
        for key, fingerprint, text in rows:
            try:
                payload = json.loads(text)
            except ValueError:
                continue
            yield key, fingerprint, payload

    def append(self, key: str, fingerprint: str, payload: dict) -> None:
        """Durably add one record (idempotent per (key, fingerprint))."""
        text = json.dumps(payload, sort_keys=True)
        with self._lock:
            self._conn.execute(self._UPSERT, (key, fingerprint, text))
            self._conn.commit()

    def lookup(self, key: str, fingerprint: str) -> dict | None:
        """Live re-check for one record, bypassing the load-time snapshot."""
        with self._lock:
            row = self._conn.execute(
                "SELECT outcome FROM points WHERE key = ? AND fingerprint = ?",
                (key, fingerprint),
            ).fetchone()
        if row is None:
            return None
        try:
            return json.loads(row[0])
        except ValueError:
            return None

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._conn.execute("SELECT COUNT(*) FROM points").fetchone()
        return int(count)

    def close(self) -> None:
        with self._lock:
            self._conn.close()


# ---------------------------------------------------------------------- cache


class PointCache:
    """In-process memo plus an optional persistent :class:`SqliteStore`.

    With no path the cache is memory-only (the executor's default): it
    deduplicates cells within one invocation — including *across* experiments
    in an ``all`` run — and costs nothing to keep enabled.  With a store
    path, hits survive across invocations; records are keyed on
    ``(CellSpec.cache_key(), code fingerprint)``.

    The cache is thread-safe: the tuning server's dispatch threads and event
    loop share one instance, so memo mutation and hit accounting happen
    under a lock (the store guards its own I/O).  On a memo miss the store is
    re-checked live before the miss is declared, so concurrent server
    processes see each other's writes.  The cache counts hits only: a miss
    is a cell its executor simulates, counted there as ``cells_simulated``.
    """

    def __init__(self, path: Path | str | None = None) -> None:
        self.store = SqliteStore(path) if path is not None else None
        self._memo: dict[tuple[str, str], CellOutcome] = {}
        self._from_store: set[tuple[str, str]] = set()
        self._lock = threading.Lock()
        self.memo_hits = 0
        self.store_hits = 0
        if self.store is not None:
            self._load()

    def _load(self) -> None:
        assert self.store is not None
        for key, fingerprint, payload in self.store.load():
            outcome = _decode_outcome(payload)
            if outcome is None:
                continue  # corrupt payload: ignore, will re-simulate
            ident = (key, fingerprint)
            self._memo[ident] = outcome
            self._from_store.add(ident)

    @property
    def persistent(self) -> bool:
        return self.store is not None

    def __len__(self) -> int:
        return len(self._memo)

    def get_memo(self, spec: CellSpec, fingerprint: str) -> CellOutcome | None:
        """Memo-only lookup: no store I/O, safe to call on an event loop.

        A hit counts toward hit stats exactly like :meth:`get`; on a miss,
        callers of a persistent cache follow up with :meth:`get` (off-loop),
        which re-checks the store.
        """
        key = (spec.cache_key(), fingerprint)
        with self._lock:
            outcome = self._memo.get(key)
            if outcome is not None:
                if key in self._from_store:
                    self.store_hits += 1
                else:
                    self.memo_hits += 1
            return outcome

    def get(self, spec: CellSpec, fingerprint: str) -> CellOutcome | None:
        outcome = self.get_memo(spec, fingerprint)
        if outcome is not None or self.store is None:
            return outcome
        # Memo miss: another process may have filled the cell since we
        # loaded — ask the store before declaring a (simulating) miss.
        key = (spec.cache_key(), fingerprint)
        payload = self.store.lookup(*key)
        outcome = _decode_outcome(payload) if payload is not None else None
        if outcome is not None:
            with self._lock:
                self._memo[key] = outcome
                self._from_store.add(key)
                self.store_hits += 1
        return outcome

    def put(self, spec: CellSpec, fingerprint: str, outcome: CellOutcome) -> None:
        key = (spec.cache_key(), fingerprint)
        with self._lock:
            if key in self._memo:
                return
            self._memo[key] = outcome
        if self.store is not None:
            self.store.append(key[0], fingerprint, outcome.to_json())

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._memo),
                "memo_hits": self.memo_hits,
                "store_hits": self.store_hits,
            }

    def close(self) -> None:
        if self.store is not None:
            self.store.close()


def _decode_outcome(payload: object) -> CellOutcome | None:
    """Payload -> outcome, or ``None`` for records a cache must not serve."""
    try:
        return CellOutcome.from_json(payload)  # type: ignore[arg-type]
    except (ValueError, KeyError, TypeError):
        return None
