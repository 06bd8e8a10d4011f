"""Client for the tuning service.

:class:`TuningClient` is the asyncio client: one connection, sequential
requests, streamed per-cell callbacks.  The ``*_sync`` helpers wrap single
calls in ``asyncio.run`` for CLIs and scripts that don't run a loop.
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterator, Callable

from repro.tuning.service import protocol
from repro.tuning.service.protocol import (
    CellReport,
    ServiceError,
    TuneQuery,
    TuneReply,
)


class TuningClient:
    """One connection to a tuning server.

    Requests on one client are sequential (``tune`` awaits its full stream);
    concurrency comes from opening several clients — each query is
    single-flighted server-side, so identical concurrent queries still cost
    one simulation total.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._next_id = 0

    @classmethod
    async def connect(
        cls, host: str = "127.0.0.1", port: int = protocol.DEFAULT_PORT
    ) -> TuningClient:
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def __aenter__(self) -> TuningClient:
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------- requests

    async def _request(self, payload: dict) -> AsyncIterator[dict]:
        """Send one request; yield its response events until the terminal one."""
        self._next_id += 1
        request_id = self._next_id
        self._writer.write(protocol.encode({"id": request_id, **payload}))
        await self._writer.drain()
        while True:
            line = await self._reader.readline()
            if not line:
                raise ServiceError("connection closed mid-request")
            event = protocol.decode(line)
            if event.get("id") != request_id:
                continue  # stale event from an aborted earlier request
            if event.get("event") == "error":
                raise ServiceError(event.get("message", "server error"))
            yield event
            if event.get("event") != "cell":
                return

    async def tune(
        self,
        query: TuneQuery,
        *,
        on_cell: Callable[[CellReport], None] | None = None,
    ) -> TuneReply:
        """Run one tune query; ``on_cell`` observes each cell as it streams."""
        events = self._request({"op": "tune", "query": query.to_json()})
        return await protocol.fold_reply(events, on_cell)

    async def stats(self) -> dict:
        async for event in self._request({"op": "stats"}):
            return dict(event.get("stats", {}))
        raise ServiceError("no stats event received")

    async def ping(self) -> int:
        """Round-trip liveness check; returns the server protocol version."""
        async for event in self._request({"op": "ping"}):
            return int(event.get("version", 0))
        raise ServiceError("no pong received")

    async def shutdown(self) -> None:
        """Ask the server process to stop serving (it drains and exits)."""
        async for _ in self._request({"op": "shutdown"}):
            return


# ------------------------------------------------------------ sync wrappers


def tune_sync(
    query: TuneQuery,
    host: str = "127.0.0.1",
    port: int = protocol.DEFAULT_PORT,
    on_cell: Callable[[CellReport], None] | None = None,
) -> TuneReply:
    """Blocking one-shot tune against a running server."""

    async def go() -> TuneReply:
        async with await TuningClient.connect(host, port) as client:
            return await client.tune(query, on_cell=on_cell)

    return asyncio.run(go())


def stats_sync(host: str = "127.0.0.1", port: int = protocol.DEFAULT_PORT) -> dict:
    """Blocking server-stats fetch."""

    async def go() -> dict:
        async with await TuningClient.connect(host, port) as client:
            return await client.stats()

    return asyncio.run(go())


def shutdown_sync(host: str = "127.0.0.1", port: int = protocol.DEFAULT_PORT) -> None:
    """Blocking shutdown request."""

    async def go() -> None:
        async with await TuningClient.connect(host, port) as client:
            await client.shutdown()

    asyncio.run(go())
