"""The concurrent autotune server.

Three layers, smallest surface first:

* :class:`SingleFlight` — at most one in-flight evaluation per
  ``(cell key, fingerprint)``: the first asker owns the computation, every
  concurrent identical asker awaits the same future.  This is what makes N
  simultaneous identical queries cost exactly one simulation.
* :class:`TuningService` — transport-independent query engine.  A tune query
  expands to the harness's cell enumeration (:meth:`TuneQuery.specs`); warm
  cells answer from the :class:`~repro.bench.cache.PointCache` immediately,
  cold cells are claimed through single-flight and coalesced into one batch
  per event-loop tick before dispatching to
  :meth:`SweepExecutor.evaluate <repro.bench.executor.SweepExecutor.evaluate>`
  on a worker thread.  Results stream back per cell, in enumeration order,
  as they resolve.
* :class:`TuningServer` — the asyncio TCP front end speaking the
  newline-delimited JSON protocol of :mod:`repro.tuning.service.protocol`,
  with per-connection write serialization and multiple requests in flight
  per connection.

Simulated numbers are never recomputed differently here: every cell routes
through the same :func:`repro.bench.executor.evaluate_cell` the offline
sweeps use, so a served TFlop/s is byte-identical to the direct
``harness.run_point`` path.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import AsyncIterator, Awaitable, Callable

from repro.bench.cellspec import CellOutcome, CellSpec
from repro.bench.executor import SweepExecutor
from repro.bench.harness import pick_best
from repro.errors import BenchmarkError, ReproError
from repro.tuning.service import protocol
from repro.tuning.service.protocol import TuneQuery


class SingleFlight:
    """Deduplicates concurrent computations of the same key.

    :meth:`claim` returns ``(future, owned)``: the first claimant of a key
    owns it (must eventually resolve the future); later claimants of the
    same key get the same future with ``owned=False`` and await it — always
    through :func:`asyncio.shield`, so one cancelled waiter cannot cancel
    the shared computation out from under the others.
    Keys free themselves when their future completes — by then the point
    cache holds the outcome, so re-claims only happen after an eviction
    (never, in practice) or a fingerprint change.
    """

    def __init__(self) -> None:
        self._inflight: dict[object, asyncio.Future] = {}

    def claim(self, key: object) -> tuple[asyncio.Future, bool]:
        future = self._inflight.get(key)
        if future is not None:
            return future, False
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        future.add_done_callback(
            lambda _, key=key: self._inflight.pop(key, None)
        )
        return future, True

    def __len__(self) -> int:
        return len(self._inflight)


class TuningService:
    """Transport-independent tune-query engine (single-flight + batching)."""

    def __init__(self, executor: SweepExecutor) -> None:
        self.executor = executor
        self.queries = 0
        self.batches_dispatched = 0
        self._flight = SingleFlight()
        self._pending: list[tuple[CellSpec, asyncio.Future]] = []
        self._flush_task: asyncio.Task | None = None

    # ------------------------------------------------------------- querying

    async def handle_tune(self, query: TuneQuery) -> AsyncIterator[dict]:
        """Stream one query's events: ``cell`` per evaluated cell (in
        enumeration order, as each resolves), then the terminal ``result``."""
        self.queries += 1
        notes: list[str] = []
        specs = query.specs(notes)
        if not specs:
            raise BenchmarkError(
                f"no admissible cell for {query.routine} n={query.n}: "
                + "; ".join(notes)
            )
        fingerprint = self.executor.fingerprint
        cache = self.executor.cache
        hits = {spec: cache.get_memo(spec, fingerprint) for spec in specs}
        cold = [spec for spec, hit in hits.items() if hit is None]
        if cold and cache.persistent:
            # Re-check the store before claiming, so a row another process
            # wrote answers as a cache hit.  The lookup is synchronous I/O
            # behind the store's lock, which an off-loop evaluate batch may
            # be holding — run it on a worker thread (one hop for every cold
            # cell of the query) so the event loop never stalls on it.
            found = await asyncio.to_thread(
                lambda: [cache.get(spec, fingerprint) for spec in cold]
            )
            hits.update(zip(cold, found))
        # Claim every remaining miss in one synchronous stretch, so all cold
        # cells of this query land in the same flush batch.
        plan: list[tuple[CellSpec, str, CellOutcome | asyncio.Future]] = []
        for spec in specs:
            hit = hits[spec]
            if hit is not None:
                plan.append((spec, protocol.SOURCE_CACHE, hit))
                continue
            future, owned = self._flight.claim((spec.cache_key(), fingerprint))
            if owned:
                self._enqueue(spec, future)
                plan.append((spec, protocol.SOURCE_SIMULATED, future))
            else:
                plan.append((spec, protocol.SOURCE_COALESCED, future))
        reports: list[protocol.CellReport] = []
        simulated = 0
        for spec, source, pending in plan:
            if isinstance(pending, CellOutcome):
                outcome = pending
            else:
                # Shielded: cancelling this waiter (client disconnect cancels
                # its dispatch task) must not cancel the shared single-flight
                # future other connections are awaiting, nor free its key
                # while the batch still runs.
                outcome = await asyncio.shield(pending)
            simulated += source == protocol.SOURCE_SIMULATED
            report = protocol.report_from_outcome(spec, outcome, source)
            reports.append(report)
            yield {"event": "cell", "cell": report.to_json()}
        best = pick_best(reports)
        yield {
            "event": "result",
            "best": best.to_json() if best is not None else None,
            "cells": len(reports),
            "simulated": simulated,
        }

    async def tune(self, query: TuneQuery) -> protocol.TuneReply:
        """In-process convenience: :meth:`handle_tune` folded into a reply."""
        return await protocol.fold_reply(self.handle_tune(query))

    # ------------------------------------------------------------- batching

    def _enqueue(self, spec: CellSpec, future: asyncio.Future) -> None:
        self._pending.append((spec, future))
        if self._flush_task is None:
            self._flush_task = asyncio.ensure_future(self._flush_soon())

    async def _flush_soon(self) -> None:
        # Cold cells claimed in the same tick coalesce into one executor
        # batch: concurrent distinct queries share pool dispatch.  The batch
        # runs on a worker thread, so simulation never blocks the loop.
        await asyncio.sleep(0)
        batch, self._pending = self._pending, []
        self._flush_task = None
        self.batches_dispatched += 1
        evaluate = self.executor.evaluate
        try:
            outcomes = await asyncio.to_thread(evaluate, [s for s, _ in batch])
        except Exception:  # noqa: BLE001 — isolate the failure per cell
            # A batch fails as one unit, but its cells were coalesced from
            # unrelated queries: retry each alone so one poisoned spec cannot
            # opaquely fail the others, and name the cell in terminal errors.
            for spec, future in batch:
                try:
                    outcome = (await asyncio.to_thread(evaluate, [spec]))[spec]
                except Exception as exc:  # noqa: BLE001
                    if not future.done():
                        future.set_exception(BenchmarkError(
                            f"evaluation failed for {spec.cache_key()}: {exc}"
                        ))
                else:
                    if not future.done():
                        future.set_result(outcome)
        else:
            for spec, future in batch:
                if not future.done():
                    future.set_result(outcomes[spec])

    # ---------------------------------------------------------------- stats

    def stats(self) -> dict[str, int]:
        return {
            "queries": self.queries,
            "batches": self.batches_dispatched,
            "inflight": len(self._flight),
            **self.executor.stats(),
        }


class TuningServer:
    """Asyncio TCP front end over a :class:`TuningService`."""

    def __init__(
        self,
        executor: SweepExecutor,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = TuningService(executor)
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._stop = asyncio.Event()
        #: open connections: handler task -> its writer.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound (host, port) — port 0 resolves
        to an ephemeral port, for tests and the smoke harness."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`stop` (or a ``shutdown`` op) is called."""
        if self._server is None:
            await self.start()
        await self._stop.wait()
        await self.close()

    def stop(self) -> None:
        self._stop.set()

    async def close(self) -> None:
        """Stop listening, close every open connection, and return once each
        connection handler has returned and the server is closed.

        Connections are closed first: their handlers then read EOF and
        return.  ``Server.wait_closed`` waits for open connections on
        Python 3.12+, and a handler still pending when the loop ends is
        cancelled inside ``readline`` and logged as a crash on 3.10/3.11.
        """
        if self._server is not None:
            self._server.close()
            handlers = list(self._connections)
            for writer in self._connections.values():
                writer.close()
            await asyncio.gather(*handlers, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        self._stop.set()

    def stats(self) -> dict[str, int]:
        return self.service.stats()

    # ----------------------------------------------------------- connection

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        send = _locked_sender(writer)
        tasks: set[asyncio.Task] = set()
        handler = asyncio.current_task()
        self._connections[handler] = writer
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    message = protocol.decode(line)
                except protocol.ServiceError as exc:
                    await send({"id": None, "event": "error", "message": str(exc)})
                    continue
                task = asyncio.ensure_future(self._dispatch(message, send))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            del self._connections[handler]
            for task in tasks:
                task.cancel()
            writer.close()
            # The peer may have reset the connection already.
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(
        self, message: dict, send: Callable[[dict], Awaitable[None]]
    ) -> None:
        request_id = message.get("id")
        op = message.get("op")
        try:
            if op == "ping":
                await send({
                    "id": request_id,
                    "event": "pong",
                    "version": protocol.PROTOCOL_VERSION,
                })
            elif op == "stats":
                await send({
                    "id": request_id, "event": "stats", "stats": self.stats(),
                })
            elif op == "shutdown":
                await send({"id": request_id, "event": "ok"})
                self.stop()
            elif op == "tune":
                query = TuneQuery.from_json(message.get("query"))
                async for event in self.service.handle_tune(query):
                    await send({"id": request_id, **event})
            else:
                await send({
                    "id": request_id,
                    "event": "error",
                    "message": f"unknown op {op!r}",
                })
        except ReproError as exc:
            with contextlib.suppress(ConnectionResetError, BrokenPipeError):
                await send({
                    "id": request_id,
                    "event": "error",
                    "message": str(exc),
                    "kind": type(exc).__name__,
                })
        except (ConnectionResetError, BrokenPipeError):
            pass


def _locked_sender(
    writer: asyncio.StreamWriter,
) -> Callable[[dict], Awaitable[None]]:
    """Per-connection serialized writes, so concurrent in-flight requests on
    one connection never interleave partial lines."""
    lock = asyncio.Lock()

    async def send(message: dict) -> None:
        async with lock:
            writer.write(protocol.encode(message))
            await writer.drain()

    return send
