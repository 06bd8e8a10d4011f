"""Command-line entry point: ``python -m repro.tuning.service <command>``.

Commands:

* ``serve`` — run a tuning server.  ``--store`` names the persistent SQLite
  point store (a path that cannot hold one is an ``error:``, exit 1);
  ``--jobs`` sizes the simulation worker pool; the bound address is printed
  as ``listening on HOST:PORT`` once ready.
* ``query`` — one tune query against a running server, streaming each cell
  as the server resolves it.
* ``stats`` / ``shutdown`` — observe or stop a running server.
* ``smoke`` — end-to-end self-check (used by CI): N concurrent identical
  queries against a fresh store must cost exactly one simulation per
  distinct cell and match the direct ``run_point`` numbers, and a second
  server *process* on the same store must answer warm without simulating.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.bench.cache import PointCache
from repro.bench.executor import SweepExecutor
from repro.errors import ReproError
from repro.tuning.service import client as client_mod
from repro.tuning.service import protocol
from repro.tuning.service.protocol import CellReport, TuneQuery
from repro.tuning.service.server import TuningServer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tuning.service",
        description="Concurrent autotune service over the sweep executor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run a tuning server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=protocol.DEFAULT_PORT,
                       help="TCP port (0 = ephemeral)")
    serve.add_argument("--store", metavar="PATH", default=None,
                       help="persistent SQLite point store; "
                            "default: in-memory only")
    serve.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="simulation worker processes (default 1: in-thread)")

    query = sub.add_parser("query", help="one tune query against a server")
    query.add_argument("routine")
    query.add_argument("n", type=int)
    query.add_argument("--library", action="append", default=None,
                       help="library/scheduler to consider (repeatable)")
    query.add_argument("--scenario", action="append", default=None,
                       help="data placement: host and/or device (repeatable)")
    query.add_argument("--platform", default=None, metavar="FACTORYxGPUS",
                       help="e.g. dgx1x8, nvswitchx16, summitx6")
    query.add_argument("--tiles", type=int, nargs="+", default=None,
                       help="explicit tile candidates (default: paper set)")
    query.add_argument("--fast", action="store_true",
                       help="reduced tile candidate set")
    _net_args(query)

    _net_args(sub.add_parser("stats", help="print server statistics"))
    _net_args(sub.add_parser("shutdown", help="stop a running server"))

    smoke = sub.add_parser("smoke", help="end-to-end single-flight self-check")
    smoke.add_argument("--clients", type=int, default=8,
                       help="concurrent identical queries (default 8)")
    smoke.add_argument("--store", metavar="PATH", default=None,
                       help="SQLite store to use (default: fresh temp store)")

    args = parser.parse_args(argv)
    try:
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "stats":
            print(client_mod.stats_sync(args.host, args.port))
            return 0
        if args.command == "shutdown":
            client_mod.shutdown_sync(args.host, args.port)
            print("server asked to shut down")
            return 0
        if args.command == "smoke":
            return _cmd_smoke(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConnectionRefusedError:
        print(f"error: no server on {args.host}:{args.port}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


def _net_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--host", default="127.0.0.1")
    cmd.add_argument("--port", type=int, default=protocol.DEFAULT_PORT)


# ------------------------------------------------------------------ commands


def _cmd_serve(args: argparse.Namespace) -> int:
    cache = PointCache(args.store)
    executor = SweepExecutor(jobs=args.jobs, cache=cache)

    async def run() -> None:
        server = TuningServer(executor, host=args.host, port=args.port)
        host, port = await server.start()
        store_note = f", store={args.store}" if args.store else ""
        print(
            f"listening on {host}:{port} (jobs={executor.jobs}{store_note})",
            flush=True,
        )
        await server.serve_until_stopped()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    finally:
        executor.close()
        cache.close()
        stats = executor.stats()
        print(
            f"served: {stats['cells_simulated']} cells simulated, "
            f"{stats['memo_hits']} memo hits, {stats['store_hits']} store hits",
            flush=True,
        )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    query = TuneQuery(
        routine=args.routine,
        n=args.n,
        libraries=tuple(args.library) if args.library else ("xkblas",),
        scenarios=tuple(args.scenario) if args.scenario else ("host",),
        platform=protocol.parse_platform(args.platform),
        tiles=tuple(args.tiles) if args.tiles else None,
        fast=args.fast,
    )

    def show(cell: CellReport) -> None:
        if cell.ok:
            print(
                f"cell {cell.library:>10} nb={cell.nb:<6} {cell.scenario:<7}"
                f" {cell.tflops:8.2f} TFlop/s  [{cell.source}]"
            )
        else:
            print(
                f"cell {cell.library:>10} nb={cell.nb:<6} {cell.scenario:<7}"
                f" failed: {cell.error}  [{cell.source}]"
            )

    reply = client_mod.tune_sync(query, args.host, args.port, on_cell=show)
    if reply.best is None:
        print("no admissible cell succeeded")
        return 1
    best = reply.best
    print(
        f"best: {best.library} nb={best.nb} {best.scenario} "
        f"{best.tflops:.2f} TFlop/s ({reply.simulated} cells simulated)"
    )
    return 0


# -------------------------------------------------------------------- smoke


def _cmd_smoke(args: argparse.Namespace) -> int:
    """The acceptance walk: single-flight, byte-identity, warm restart."""
    from repro.bench.harness import run_point
    from repro.topology.dgx1 import make_dgx1

    query = TuneQuery(routine="gemm", n=4096, tiles=(1024, 2048))
    with contextlib.ExitStack() as stack:
        if args.store is None:
            tmp = stack.enter_context(tempfile.TemporaryDirectory())
            store_path = str(Path(tmp) / "points.sqlite")
        else:
            store_path = args.store

        # Phase 1: fresh store, N concurrent identical queries in-process.
        replies, stats = asyncio.run(
            _smoke_concurrent(store_path, query, args.clients)
        )
        distinct = len(query.specs())
        ok = True
        ok &= _check(
            stats["cells_simulated"] == distinct,
            f"single-flight: {args.clients} concurrent identical queries "
            f"simulated {stats['cells_simulated']} cells "
            f"(expected {distinct} distinct)",
        )
        owned = sum(reply.simulated for reply in replies)
        ok &= _check(
            owned == distinct,
            f"exactly one query owned each simulation ({owned} owned)",
        )
        numbers = {
            tuple((c.nb, c.tflops, c.seconds) for c in reply.cells)
            for reply in replies
        }
        ok &= _check(
            len(numbers) == 1, f"all {args.clients} replies identical"
        )

        # Byte-identity against the direct, executor-free harness path.
        direct = run_point("xkblas", "gemm", 4096, 1024, make_dgx1(8))
        served = next(c for c in replies[0].cells if c.nb == 1024)
        ok &= _check(
            served.tflops == direct.tflops and served.seconds == direct.seconds,
            f"served nb=1024 matches direct run_point "
            f"({served.tflops} vs {direct.tflops} TFlop/s)",
        )

        # Phase 2: a *second server process* on the same store answers warm.
        ok &= _smoke_warm_process(store_path, query)
    print("smoke: PASS" if ok else "smoke: FAIL")
    return 0 if ok else 1


async def _smoke_concurrent(store_path: str, query: TuneQuery, clients: int):
    cache = PointCache(store_path)
    executor = SweepExecutor(jobs=1, cache=cache)
    server = TuningServer(executor, port=0)
    host, port = await server.start()

    async def one() -> protocol.TuneReply:
        async with await client_mod.TuningClient.connect(host, port) as cl:
            return await cl.tune(query)

    try:
        replies = await asyncio.gather(*(one() for _ in range(clients)))
        stats = executor.stats()
    finally:
        await server.close()
        executor.close()
        cache.close()
    return replies, stats


def _smoke_warm_process(store_path: str, query: TuneQuery) -> bool:
    import repro

    env = os.environ.copy()
    # The child must import the same repro tree regardless of cwd or a
    # relative PYTHONPATH in the parent.
    pkg_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.tuning.service", "serve",
            "--store", store_path, "--port", "0", "--jobs", "1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        line = proc.stdout.readline()
        if "listening on" not in line:
            print(f"FAIL second server did not start: {line.strip()}")
            return False
        address = line.split("listening on", 1)[1].split()[0]
        host, port = address.rsplit(":", 1)
        reply = client_mod.tune_sync(query, host, int(port))
        stats = client_mod.stats_sync(host, int(port))
        ok = _check(
            stats["cells_simulated"] == 0 and reply.simulated == 0,
            f"warm restart: second server process simulated "
            f"{stats['cells_simulated']} cells (expected 0), "
            f"{stats['store_hits']} store hits",
        )
        ok &= _check(
            reply.best is not None, "warm reply carries a best cell"
        )
        client_mod.shutdown_sync(host, int(port))
        proc.wait(timeout=60)
        output = proc.stdout.read()
        clean = "Traceback" not in output
        ok &= _check(clean, "second server process exited without a traceback")
        if not clean:
            print(output, end="")
        return ok
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def _check(condition: bool, message: str) -> bool:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    return bool(condition)


if __name__ == "__main__":
    sys.exit(main())
