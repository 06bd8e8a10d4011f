"""Wire protocol of the tuning service.

Transport is newline-delimited JSON over a stream: every request and every
response event is one JSON object per line.  A request carries an ``id``
(client-chosen, echoed on every response event so one connection can hold
multiple requests in flight) and an ``op``; a ``tune`` request streams zero
or more ``cell`` events — one per evaluated (library, nb, scenario) cell, in
deterministic enumeration order, as results become available — followed by a
terminal ``result`` (or ``error``) event.

The typed surface is :class:`TuneQuery` (what a client asks), ``CellReport``
(one evaluated cell plus where its number came from: the warm cache, another
in-flight query's simulation, or a simulation this query owned), and
:class:`TuneReply` (the answer :func:`fold_reply` assembles, on either side
of the wire, from the ``cell`` events and the terminal ``result``).  Queries
and cell reports round-trip through plain JSON dicts; floats survive exactly
(JSON text preserves the shortest repr round-trip), so a served TFlop/s
equals the direct :func:`repro.bench.harness.run_point` number byte for
byte.
"""

from __future__ import annotations

import dataclasses
import json
from typing import AsyncIterable, Callable, Collection

from repro.bench.cellspec import (
    DEFAULT_PLATFORM,
    PLATFORM_FACTORIES,
    CellOutcome,
    CellSpec,
    PlatformHandle,
)
from repro.bench.harness import pick_best, point_cells
from repro.blas.routines import ROUTINES
from repro.errors import BenchmarkError, ReproError
from repro.libraries.base import SCENARIOS
from repro.libraries.registry import LIBRARIES

#: Bumped on incompatible wire changes; servers echo it in ``pong`` events.
PROTOCOL_VERSION = 1

#: The default TCP port (chosen free; override with ``--port``).
DEFAULT_PORT = 7341

#: Where a ``cell`` number came from (observability, not semantics).
SOURCE_CACHE = "cache"          # already warm before the query arrived
SOURCE_COALESCED = "coalesced"  # joined another query's in-flight simulation
SOURCE_SIMULATED = "simulated"  # this query owned the (single) simulation


class ServiceError(ReproError):
    """An ``error`` event from the server, re-raised client-side."""


def parse_platform(value: object) -> PlatformHandle:
    """Coerce a wire platform field (``"dgx1x8"``, a dict, or ``None``)."""
    if value is None:
        return DEFAULT_PLATFORM
    if isinstance(value, PlatformHandle):
        return value
    if isinstance(value, str):
        # Factory names may themselves contain 'x<digit>' (dgx1), so split on
        # the last 'x' AND require a registered factory — 'dgx1' must not
        # silently parse as factory 'dg' with one GPU.
        factory, sep, gpus = value.rpartition("x")
        if not sep or not gpus.isdigit() or factory not in PLATFORM_FACTORIES:
            raise BenchmarkError(
                f"bad platform {value!r}; expected '<factory>x<gpus>' like "
                f"'dgx1x8' with factory in {sorted(PLATFORM_FACTORIES)}"
            )
        return PlatformHandle(factory, int(gpus))
    if isinstance(value, dict):
        factory, gpus = value.get("factory", "dgx1"), value.get("gpus", 8)
        if isinstance(factory, str) and type(gpus) is int:
            return PlatformHandle(factory, gpus)
        raise BenchmarkError(
            f"bad platform {value!r}; expected a factory name and an integer gpus"
        )
    raise BenchmarkError(f"bad platform {value!r}")


@dataclasses.dataclass(frozen=True)
class TuneQuery:
    """One "best (library, nb, placement) for my (routine, N, platform)" ask.

    ``libraries`` and ``scenarios`` span the search space alongside the tile
    ladder: the answer is the best cell over their cross product.  ``tiles``
    overrides the paper's candidate set; ``fast`` uses the reduced set.
    """

    routine: str
    n: int
    libraries: tuple[str, ...] = ("xkblas",)
    scenarios: tuple[str, ...] = ("host",)
    platform: PlatformHandle = DEFAULT_PLATFORM
    tiles: tuple[int, ...] | None = None
    fast: bool = False

    def specs(self, notes: list[str] | None = None) -> tuple[CellSpec, ...]:
        """Deterministic cell enumeration: libraries × scenarios × tile set.

        The harness's :func:`~repro.bench.harness.point_cells` expands each
        (library, scenario) point; one that admits no tile size adds its
        skip note to ``notes``, if given.
        """
        cells = point_cells(
            [
                (library, self.routine, self.n, scenario)
                for library in self.libraries
                for scenario in self.scenarios
            ],
            self.platform, tiles=self.tiles, fast=self.fast, notes=notes,
        )
        return tuple(dict.fromkeys(spec for group in cells.values() for spec in group))

    def to_json(self) -> dict:
        payload: dict = {
            "routine": self.routine,
            "n": self.n,
            "libraries": list(self.libraries),
            "scenarios": list(self.scenarios),
            "platform": self.platform.key,
        }
        if self.tiles is not None:
            payload["tiles"] = list(self.tiles)
        if self.fast:
            payload["fast"] = True
        return payload

    @classmethod
    def from_json(cls, payload: object) -> TuneQuery:
        """Parse a wire query, refusing (with :class:`BenchmarkError` naming
        the field and its value) anything the harness could not run as asked:
        the refusal costs the client nothing, a served wrong cell does."""
        if not isinstance(payload, dict):
            raise BenchmarkError(f"tune query must be an object, got {payload!r}")
        if "routine" not in payload or "n" not in payload:
            raise BenchmarkError(
                f"tune query needs 'routine' and integer 'n', got {payload!r}"
            )
        routine = payload["routine"]
        if not isinstance(routine, str) or routine.lower() not in ROUTINES:
            raise BenchmarkError(
                f"unknown routine {routine!r}; choose from {sorted(ROUTINES)}"
            )
        n = _json_int(payload["n"], "n")
        if n <= 0:
            raise BenchmarkError(f"tune query needs n > 0, got n={n}")
        libraries = _names(payload.get("libraries"), ("xkblas",), "libraries", LIBRARIES)
        scenarios = _names(payload.get("scenarios"), ("host",), "scenarios", SCENARIOS)
        tiles_raw = payload.get("tiles")
        tiles: tuple[int, ...] | None = None
        if tiles_raw is not None:
            if not isinstance(tiles_raw, list):
                raise BenchmarkError(f"bad tiles {tiles_raw!r}; expected a list")
            tiles = tuple(_json_int(t, "tiles") for t in tiles_raw)
            for nb in tiles:
                if nb <= 0:
                    raise BenchmarkError(
                        f"tune query needs tile sizes > 0, got {nb!r}"
                    )
        fast = payload.get("fast", False)
        if not isinstance(fast, bool):
            raise BenchmarkError(f"bad fast {fast!r}; expected a JSON boolean")
        platform = parse_platform(payload.get("platform"))
        try:
            platform.build()
        except ValueError as exc:
            raise BenchmarkError(
                f"bad platform {payload.get('platform')!r}: {exc}"
            ) from None
        return cls(
            routine=routine.lower(),
            n=n,
            libraries=libraries,
            scenarios=scenarios,
            platform=platform,
            tiles=tiles,
            fast=fast,
        )


def _names(value: object, default: tuple[str, ...], field: str,
           known: Collection[str]) -> tuple[str, ...]:
    """A name or non-empty list of names, each one of ``known``."""
    if value is None:
        return default
    names = [value] if isinstance(value, str) else value
    if not isinstance(names, list) or not names:
        raise BenchmarkError(f"bad {field} {value!r}; expected a non-empty list")
    for name in names:
        if not isinstance(name, str) or name not in known:
            raise BenchmarkError(
                f"unknown {field} entry {name!r}; choose from {sorted(known)}"
            )
    return tuple(names)


def _json_int(value: object, field: str) -> int:
    # ``bool`` is an ``int`` subclass, and ``int()`` would truncate a float
    # or parse a string: only a JSON integer is one.
    if type(value) is not int:
        raise BenchmarkError(f"bad {field} {value!r}; expected a JSON integer")
    return value


@dataclasses.dataclass(frozen=True)
class CellReport:
    """One evaluated cell of a tune reply."""

    library: str
    routine: str
    n: int
    nb: int
    scenario: str
    ok: bool
    tflops: float | None = None
    seconds: float | None = None
    flops: float | None = None
    error: str | None = None
    source: str = SOURCE_SIMULATED

    def to_json(self) -> dict:
        return {
            k: v for k, v in dataclasses.asdict(self).items() if v is not None
        }

    @classmethod
    def from_json(cls, payload: dict) -> CellReport:
        try:
            return cls(
                library=str(payload["library"]),
                routine=str(payload["routine"]),
                n=int(payload["n"]),
                nb=int(payload["nb"]),
                scenario=str(payload["scenario"]),
                ok=bool(payload["ok"]),
                tflops=payload.get("tflops"),
                seconds=payload.get("seconds"),
                flops=payload.get("flops"),
                error=payload.get("error"),
                source=str(payload.get("source", SOURCE_SIMULATED)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"bad cell payload {payload!r}: {exc}") from None


def report_from_outcome(
    spec: CellSpec, outcome: CellOutcome, source: str
) -> CellReport:
    """Fold an executor outcome into the wire-level cell report."""
    return CellReport(
        library=spec.library,
        routine=spec.routine,
        n=spec.n,
        nb=spec.nb,
        scenario=spec.scenario,
        ok=outcome.ok,
        tflops=outcome.tflops,
        seconds=outcome.seconds,
        flops=outcome.flops,
        error=outcome.error,
        source=source,
    )


@dataclasses.dataclass(frozen=True)
class TuneReply:
    """The assembled answer to one :class:`TuneQuery`."""

    cells: tuple[CellReport, ...]
    best: CellReport | None
    simulated: int


async def fold_reply(
    events: AsyncIterable[dict],
    on_cell: Callable[[CellReport], None] | None = None,
) -> TuneReply:
    """Fold one tune stream (``cell`` events, then ``result``) into a reply.

    The one fold: the in-process service and the TCP client both call it.
    ``on_cell`` observes each cell as it streams; the winner is the
    harness's :func:`~repro.bench.harness.pick_best` over the cells.
    """
    cells: list[CellReport] = []
    simulated = 0
    async for event in events:
        if event["event"] == "cell":
            cell = CellReport.from_json(event["cell"])
            cells.append(cell)
            if on_cell is not None:
                on_cell(cell)
        elif event["event"] == "result":
            simulated = int(event.get("simulated", 0))
    return TuneReply(cells=tuple(cells), best=pick_best(cells), simulated=simulated)


def encode(message: dict) -> bytes:
    """One wire line for one message."""
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def decode(line: bytes) -> dict:
    """Parse one wire line; raises :class:`ServiceError` on garbage."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ServiceError(f"bad wire line: {exc}") from None
    if not isinstance(message, dict):
        raise ServiceError(f"wire message must be an object, got {message!r}")
    return message
