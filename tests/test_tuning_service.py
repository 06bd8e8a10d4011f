"""Tests for the tuning service: protocol, single-flight, server, client.

Most tests drive the service with a :class:`CountingExecutor` producing
synthetic outcomes (``tflops = nb``) so the concurrency logic is exercised
without simulation cost; one end-to-end test runs a real cell through a TCP
server and pins byte-identity against the direct ``run_point`` path.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.bench.cache import PointCache
from repro.bench.cellspec import CellOutcome, CellSpec, PlatformHandle
from repro.bench.executor import SweepExecutor
from repro.errors import BenchmarkError
from repro.tuning.service import (
    ServiceError,
    TuneQuery,
    TuningClient,
    TuningServer,
    TuningService,
)
from repro.tuning.service import protocol

QUERY = TuneQuery(routine="gemm", n=8192, tiles=(1024, 2048))


class CountingExecutor(SweepExecutor):
    """Synthetic outcomes (tflops = nb), instant; records every batch."""

    def __init__(self, cache: PointCache | None = None, delay: float = 0.0):
        super().__init__(jobs=1, cache=cache)
        self.batches: list[list[CellSpec]] = []
        self.delay = delay

    def evaluate(self, specs):
        ordered = list(dict.fromkeys(specs))
        self.batches.append(ordered)
        if self.delay:
            time.sleep(self.delay)
        results = {}
        for spec in ordered:
            hit = self.cache.get(spec, self.fingerprint)
            if hit is None:
                hit = CellOutcome(
                    ok=True, tflops=float(spec.nb), seconds=1.0, flops=1.0
                )
                with self._stats_lock:
                    self.cells_simulated += 1
                self.cache.put(spec, self.fingerprint, hit)
            results[spec] = hit
        return results


# ------------------------------------------------------------------ protocol


def test_query_json_round_trip():
    query = TuneQuery(
        routine="syrk", n=16384, libraries=("xkblas", "slate"),
        scenarios=("host", "device"), tiles=(1024, 2048), fast=True,
    )
    assert TuneQuery.from_json(query.to_json()) == query


def test_query_validation_errors():
    with pytest.raises(BenchmarkError):
        TuneQuery.from_json(None)
    with pytest.raises(BenchmarkError):
        TuneQuery.from_json({"routine": "gemm"})  # no n
    with pytest.raises(BenchmarkError):
        TuneQuery.from_json({"routine": "gemm", "n": -4})
    with pytest.raises(BenchmarkError):
        TuneQuery.from_json({"routine": "gemm", "n": 8192, "libraries": []})
    with pytest.raises(BenchmarkError):
        TuneQuery.from_json({"routine": "gemm", "n": 8192, "tiles": ["x"]})


def test_parse_platform():
    handle = protocol.parse_platform("nvswitchx16")
    assert (handle.factory, handle.gpus) == ("nvswitch", 16)
    assert protocol.parse_platform(None).key == "dgx1x8"
    assert protocol.parse_platform({"factory": "summit", "gpus": 6}).key == "summitx6"
    with pytest.raises(BenchmarkError):
        protocol.parse_platform("dgx1")  # no gpu count
    with pytest.raises(BenchmarkError):
        protocol.parse_platform(42)


def test_query_spec_enumeration_is_deterministic_cross_product():
    query = TuneQuery(
        routine="gemm", n=8192, libraries=("xkblas", "slate"),
        scenarios=("host", "device"), tiles=(1024, 2048),
    )
    specs = query.specs()
    assert [
        (s.library, s.scenario, s.nb) for s in specs
    ] == [
        ("xkblas", "host", 1024), ("xkblas", "host", 2048),
        ("xkblas", "device", 1024), ("xkblas", "device", 2048),
        ("slate", "host", 1024), ("slate", "host", 2048),
        ("slate", "device", 1024), ("slate", "device", 2048),
    ]
    assert specs == query.specs()


def test_pick_best_is_first_strict_maximum():
    # One rule ranks the service's wire-level cell reports and the harness's
    # executor outcomes.
    from repro.bench.harness import pick_best

    mk = lambda nb, tflops, ok=True: protocol.CellReport(
        library="xkblas", routine="gemm", n=8192, nb=nb, scenario="host",
        ok=ok, tflops=tflops,
    )
    cells = [mk(512, 10.0), mk(1024, 12.0), mk(2048, 12.0), mk(4096, 1.0, ok=False)]
    assert pick_best(cells).nb == 1024  # tie keeps the first
    assert pick_best([mk(512, None, ok=False)]) is None
    outcomes = [CellOutcome(ok=c.ok, tflops=c.tflops) for c in cells]
    assert pick_best(outcomes) is outcomes[1]
    assert pick_best([CellOutcome(ok=False, error="unsupported")]) is None


# -------------------------------------------------------------- single-flight


def test_concurrent_identical_queries_cost_one_simulation_each_cell():
    async def go():
        executor = CountingExecutor(delay=0.02)
        service = TuningService(executor)
        replies = await asyncio.gather(*(service.tune(QUERY) for _ in range(8)))
        return executor, replies

    executor, replies = asyncio.run(go())
    assert executor.cells_simulated == 2  # one per distinct cell, not per query
    assert sum(reply.simulated for reply in replies) == 2
    # Everyone got the same numbers, whatever path served them.
    assert len({
        tuple((c.nb, c.tflops, c.seconds) for c in reply.cells)
        for reply in replies
    }) == 1
    sources = {c.source for reply in replies for c in reply.cells}
    assert protocol.SOURCE_SIMULATED in sources
    assert sources <= {
        protocol.SOURCE_SIMULATED, protocol.SOURCE_COALESCED, protocol.SOURCE_CACHE,
    }


def test_concurrent_distinct_queries_coalesce_into_one_batch():
    query_a = TuneQuery(routine="gemm", n=8192, tiles=(1024, 2048))
    query_b = TuneQuery(routine="syrk", n=8192, tiles=(1024, 2048))

    async def go():
        executor = CountingExecutor()
        service = TuningService(executor)
        await asyncio.gather(service.tune(query_a), service.tune(query_b))
        return executor

    executor = asyncio.run(go())
    assert executor.cells_simulated == 4
    assert len(executor.batches) == 1  # cold cells of both queries, one dispatch
    assert len(executor.batches[0]) == 4


def test_sequential_repeat_is_a_pure_cache_hit():
    async def go():
        executor = CountingExecutor()
        service = TuningService(executor)
        first = await service.tune(QUERY)
        second = await service.tune(QUERY)
        return executor, first, second

    executor, first, second = asyncio.run(go())
    assert executor.cells_simulated == 2
    assert second.simulated == 0
    assert all(c.source == protocol.SOURCE_CACHE for c in second.cells)
    assert [(c.nb, c.tflops) for c in first.cells] == \
        [(c.nb, c.tflops) for c in second.cells]


def test_cancelled_waiter_does_not_cancel_shared_flight():
    # A client disconnect cancels its dispatch task mid-await; the shared
    # single-flight future must survive for the coalesced waiters on other
    # connections (and the in-flight key must stay claimed).
    async def go():
        executor = CountingExecutor(delay=0.1)
        service = TuningService(executor)
        survivors = [asyncio.ensure_future(service.tune(QUERY)) for _ in range(2)]
        await asyncio.sleep(0)  # let the survivors claim the cells
        victim = asyncio.ensure_future(service.tune(QUERY))
        await asyncio.sleep(0.02)  # batch dispatched, everyone awaiting
        victim.cancel()
        replies = await asyncio.gather(*survivors)
        with pytest.raises(asyncio.CancelledError):
            await victim
        return executor, replies

    executor, replies = asyncio.run(go())
    assert executor.cells_simulated == 2  # still exactly one per cell
    assert all(reply.best.nb == 2048 for reply in replies)
    assert all(reply.best.tflops == 2048.0 for reply in replies)


def test_batch_failure_falls_back_to_per_spec_evaluation():
    # One poisoned spec in a coalesced batch must not fail unrelated
    # queries: the flush retries each cell alone, and the terminal error
    # names the cell that actually failed.
    poison = TuneQuery(routine="gemm", n=8192, tiles=(1024,))
    good = TuneQuery(routine="syrk", n=8192, tiles=(2048,))

    class PoisonExecutor(CountingExecutor):
        def evaluate(self, specs):
            specs = list(specs)
            if any(s.routine == "gemm" for s in specs):
                raise RuntimeError("worker lost")
            return super().evaluate(specs)

    async def go():
        service = TuningService(PoisonExecutor())
        return await asyncio.gather(
            service.tune(poison), service.tune(good), return_exceptions=True
        )

    bad, ok = asyncio.run(go())
    assert isinstance(bad, BenchmarkError)
    assert "gemm" in str(bad) and "worker lost" in str(bad)
    assert not isinstance(ok, Exception)
    assert ok.best.nb == 2048


def test_inadmissible_query_raises_not_zero():
    async def go():
        service = TuningService(CountingExecutor())
        await service.tune(TuneQuery(routine="gemm", n=512, tiles=(1024,)))

    with pytest.raises(BenchmarkError, match="no admissible cell"):
        asyncio.run(go())


def test_inadmissible_query_names_each_pruned_ladder():
    # The default ladders too: each library's candidates, not "tiles=None".
    query = TuneQuery(routine="gemm", n=512, libraries=("xkblas", "cublas-xt"))
    with pytest.raises(BenchmarkError) as info:
        asyncio.run(TuningService(CountingExecutor()).tune(query))
    message = str(info.value)
    assert message.startswith("no admissible cell for gemm n=512")
    assert "(1024, 2048, 4096)" in message
    assert "(1024, 2048, 4096, 8192, 16384)" in message


def test_query_skip_notes_are_the_sweeps_notes():
    # One cell enumeration: a query point that admits no tile is noted
    # exactly as a figure notes it, and a device point names its scenario.
    from repro.bench.harness import best_tiles

    figure_notes: list[str] = []
    best_tiles([("xkblas", "gemm", 512, "host")], notes=figure_notes)
    query_notes: list[str] = []
    assert TuneQuery(routine="gemm", n=512).specs(query_notes) == ()
    assert query_notes == figure_notes
    device_notes: list[str] = []
    query = TuneQuery(routine="gemm", n=256, scenarios=("host", "device"))
    assert query.specs(device_notes) == ()
    assert device_notes[0].startswith("skipped xkblas/gemm N=256:")
    assert device_notes[1].startswith("skipped xkblas/gemm N=256 (device):")
    assert "among (256, 512, 2048)" in device_notes[1]


def test_cold_then_warm_query_counts_each_cell_once():
    # One miss count: the executor simulates exactly the cells it found in
    # neither the memo nor the store; the cache counts hits only.
    query = TuneQuery(routine="gemm", n=4096, tiles=(1024, 2048))
    with SweepExecutor(jobs=1) as executor:
        service = TuningService(executor)
        cold = asyncio.run(service.tune(query))
        assert executor.stats() == {
            "cells_simulated": 2, "entries": 2, "memo_hits": 0, "store_hits": 0,
        }
        warm = asyncio.run(service.tune(query))
        assert executor.stats() == {
            "cells_simulated": 2, "entries": 2, "memo_hits": 2, "store_hits": 0,
        }
    assert (cold.simulated, warm.simulated) == (2, 0)
    assert all(c.source == protocol.SOURCE_CACHE for c in warm.cells)


def test_failed_cells_stream_and_best_is_none():
    class FailingExecutor(CountingExecutor):
        def evaluate(self, specs):
            ordered = list(dict.fromkeys(specs))
            out = {}
            for spec in ordered:
                outcome = CellOutcome(ok=False, error="unsupported")
                self.cache.put(spec, self.fingerprint, outcome)
                out[spec] = outcome
            return out

    async def go():
        service = TuningService(FailingExecutor())
        return await service.tune(QUERY)

    reply = asyncio.run(go())
    assert reply.best is None
    assert all(not c.ok and c.error == "unsupported" for c in reply.cells)


# ----------------------------------------------------------------- TCP server


def _tcp(coro_fn):
    """Run one client coroutine against a fresh in-process TCP server."""

    async def go():
        executor = CountingExecutor()
        server = TuningServer(executor, port=0)
        host, port = await server.start()
        try:
            return await coro_fn(executor, host, port)
        finally:
            await server.close()

    return asyncio.run(go())


def test_tcp_tune_streams_cells_then_result():
    async def scenario(executor, host, port):
        streamed = []
        async with await TuningClient.connect(host, port) as client:
            assert await client.ping() == protocol.PROTOCOL_VERSION
            reply = await client.tune(query=QUERY, on_cell=streamed.append)
            stats = await client.stats()
        return streamed, reply, stats

    streamed, reply, stats = _tcp(scenario)
    assert [c.nb for c in streamed] == [1024, 2048]
    assert reply.best.nb == 2048  # tflops = nb under the counting executor
    assert reply.best.tflops == 2048.0
    assert reply.simulated == 2
    assert stats["queries"] == 1
    assert stats["cells_simulated"] == 2
    assert stats["inflight"] == 0


def test_tcp_concurrent_clients_single_flight():
    async def scenario(executor, host, port):
        async def one():
            async with await TuningClient.connect(host, port) as client:
                return await client.tune(query=QUERY)

        replies = await asyncio.gather(*(one() for _ in range(6)))
        return executor, replies

    executor, replies = _tcp(scenario)
    assert executor.cells_simulated == 2
    assert len({
        tuple((c.nb, c.tflops) for c in reply.cells) for reply in replies
    }) == 1


def test_tcp_error_event_raises_client_side():
    async def scenario(executor, host, port):
        async with await TuningClient.connect(host, port) as client:
            await client.tune(TuneQuery(routine="gemm", n=512, tiles=(1024,)))

    with pytest.raises(ServiceError, match="no admissible cell"):
        _tcp(scenario)


@pytest.mark.parametrize("tile", [0, -1024])
def test_tcp_non_positive_tile_answers_with_an_error(tile):
    # A zero tile size used to kill the dispatch task (n / nb) and leave the
    # client waiting for a terminal event that never came.
    async def scenario(executor, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        query = {"routine": "gemm", "n": 4096, "tiles": [tile]}
        writer.write(protocol.encode({"id": 1, "op": "tune", "query": query}))
        await writer.drain()
        event = protocol.decode(await asyncio.wait_for(reader.readline(), 5.0))
        writer.close()
        await writer.wait_closed()
        return executor, event

    executor, event = _tcp(scenario)
    assert event["event"] == "error" and event["id"] == 1
    assert event["message"].endswith(f"got {tile}")
    assert executor.batches == []


def test_tcp_unknown_op_and_bad_json_answer_with_errors():
    async def scenario(executor, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b'{"id": 7, "op": "dance"}\n')
        writer.write(b"this is not json\n")
        await writer.drain()
        # The unknown op answers from a per-request task, the parse error
        # from the read loop — order between the two lines is not defined.
        events = [protocol.decode(await reader.readline()) for _ in range(2)]
        writer.close()
        await writer.wait_closed()
        unknown = next(e for e in events if e["id"] == 7)
        garbage = next(e for e in events if e["id"] is None)
        return unknown, garbage

    unknown, garbage = _tcp(scenario)
    assert unknown["event"] == "error" and "unknown op" in unknown["message"]
    assert unknown["id"] == 7
    assert garbage["event"] == "error" and garbage["id"] is None


def test_tcp_shutdown_op_stops_the_server():
    async def go():
        executor = CountingExecutor()
        server = TuningServer(executor, port=0)
        host, port = await server.start()
        serve_task = asyncio.ensure_future(server.serve_until_stopped())
        async with await TuningClient.connect(host, port) as client:
            await client.shutdown()
        await asyncio.wait_for(serve_task, timeout=10)
        return True

    assert asyncio.run(go())


def test_shutdown_closes_idle_connections_and_leaves_no_task():
    """A ``shutdown`` while another client holds an idle connection: the
    server closes that connection too, and ``serve_until_stopped`` returns
    with no connection handler left pending.  On Python 3.12+ an open
    connection keeps ``Server.wait_closed`` waiting; on 3.10/3.11 a handler
    still in ``readline`` when the loop ends is cancelled and logged."""

    async def go():
        server = TuningServer(CountingExecutor(), port=0)
        host, port = await server.start()
        serve_task = asyncio.ensure_future(server.serve_until_stopped())
        idle_reader, idle_writer = await asyncio.open_connection(host, port)
        async with await TuningClient.connect(host, port) as client:
            await client.ping()  # the idle connection's handler is running
            await client.shutdown()
        await asyncio.wait_for(serve_task, timeout=10)
        left = asyncio.all_tasks() - {asyncio.current_task()}
        eof = await asyncio.wait_for(idle_reader.read(), timeout=10)
        idle_writer.close()
        return left, eof

    left, eof = asyncio.run(go())
    assert left == set()
    assert eof == b""


# ------------------------------------------------------------- persistence


def test_warm_restart_against_shared_sqlite_store(tmp_path):
    store_path = tmp_path / "corpus.sqlite"

    async def first_server():
        executor = CountingExecutor(cache=PointCache(store_path))
        reply = await TuningService(executor).tune(QUERY)
        executor.cache.close()
        return executor.cells_simulated, reply

    async def second_server():
        executor = CountingExecutor(cache=PointCache(store_path))
        reply = await TuningService(executor).tune(QUERY)
        executor.cache.close()
        return executor.cells_simulated, reply

    cold_count, cold = asyncio.run(first_server())
    warm_count, warm = asyncio.run(second_server())
    assert (cold_count, warm_count) == (2, 0)
    assert all(c.source == protocol.SOURCE_CACHE for c in warm.cells)
    assert [(c.nb, c.tflops) for c in warm.cells] == \
        [(c.nb, c.tflops) for c in cold.cells]


# ------------------------------------------------------------- end to end


def test_real_cell_served_byte_identical_to_run_point():
    from repro.bench.harness import run_point
    from repro.topology.dgx1 import make_dgx1

    query = TuneQuery(routine="gemm", n=4096, tiles=(1024,))

    async def scenario():
        executor = SweepExecutor(jobs=1)
        server = TuningServer(executor, port=0)
        host, port = await server.start()
        try:
            async with await TuningClient.connect(host, port) as client:
                return await client.tune(query=query)
        finally:
            await server.close()
            executor.close()

    reply = asyncio.run(scenario())
    direct = run_point("xkblas", "gemm", 4096, 1024, make_dgx1(8))
    (cell,) = reply.cells
    assert cell.tflops == direct.tflops
    assert cell.seconds == direct.seconds
    assert reply.best.nb == 1024


def test_service_and_harness_pick_the_same_best_cell():
    # pick_best and best_over_tiles rank different types (CellReport on the
    # wire, CellOutcome in the harness) but must apply one rule: the first
    # strict maximum over the cells that succeeded, in enumeration order.
    from repro.bench.harness import best_over_tiles, tile_specs

    handle = PlatformHandle("dgx1", 4)
    tiles = (1024, 2048, 4096)
    query = TuneQuery(routine="gemm", n=8192, platform=handle, tiles=tiles)
    with SweepExecutor(jobs=1) as executor:
        reply = asyncio.run(TuningService(executor).tune(query))
    with SweepExecutor(jobs=1) as executor:
        best = best_over_tiles(
            "xkblas", "gemm", 8192, handle, tiles=tiles, executor=executor
        )
        tried = executor.evaluate(tile_specs("xkblas", "gemm", 8192, handle, tiles=tiles))
    assert (reply.best.nb, reply.best.tflops) == (best.nb, best.tflops)
    assert {c.nb: c.tflops for c in reply.cells if c.ok} == {
        spec.nb: o.tflops for spec, o in tried.items() if o.ok
    }
    assert len(reply.cells) == len(tiles)


def test_cli_smoke_end_to_end(tmp_path):
    # The CI acceptance walk: concurrent identical queries cost one
    # simulation per distinct cell; a second server *process* on the same
    # SQLite store answers warm.  ~15s: two real 4096-point simulations
    # plus one subprocess server start.
    from repro.tuning.service.__main__ import main

    store = tmp_path / "smoke.sqlite"
    assert main(["smoke", "--clients", "3", "--store", str(store)]) == 0


def test_cli_smoke_closes_the_second_server_pipe(tmp_path):
    # The warm-restart phase reads the second server process's output: it
    # must close that pipe, not leave it to the garbage collector.
    import gc
    import warnings

    from repro.tuning.service.__main__ import main

    gc.collect()  # earlier tests' garbage warns outside the block
    store = tmp_path / "smoke.sqlite"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["smoke", "--clients", "2", "--store", str(store)]) == 0
        gc.collect()
    leaks = [str(w.message) for w in caught if w.category is ResourceWarning]
    assert leaks == []
