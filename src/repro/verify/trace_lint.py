"""Post-mortem trace linter.

Replays a :class:`~repro.sim.trace.TraceRecorder` stream (the nvprof-like
trace every run records) and flags transfers that contradict the protocol or
the paper's heuristics:

* **T001 — malformed transfer label**: memcpy intervals must carry the
  runtime's ``h2d``/``d2h``/``p2p`` labels naming a tile; anything else means
  a foreign producer wrote into the trace.
* **T002 — self-transfer**: a PtoP record whose source equals its
  destination.
* **T003 — unknown endpoint**: a transfer endpoint outside the platform's
  devices (when a platform is given).
* **T004 — duplicate H2D**: two host-to-device copies of the *same tile to
  the same device* overlapping in time.  The in-flight state of §III-C exists
  precisely so the second request chains on the first ("the heuristic avoids
  duplicate tile transfers from main memory"); overlap means the
  deduplication was bypassed.
* **T005 — source without provenance**: a PtoP forward from a device that,
  per the replay, cannot hold the tile: no earlier transfer delivered it
  there and no kernel ran there that could have produced it.  (Seeded
  data-on-device placements are untraced — pass ``allow_seeded=True`` for
  those scenarios.)

Two further rules run only with ``topology_aware=True``:

* **T006 — rank-order contradiction**: a PtoP forward uses source ``s``
  although another device with a strictly better link rank toward the
  destination certainly held the tile.
* **T007 — redundant H2D fan-out**: a host copy of a tile that certainly was
  already valid on some device — the topology heuristic must forward
  device-to-device instead of re-reading host memory.

T006/T007 compare against replica validity *at the DMA start time* recorded
in the trace, while the runtime picks sources at queue time — on a congested
fabric a replica can land between the two and legally look "missed".  They
are therefore exact only for queue-delay-free streams: distribution phases,
synthetic traces, replayed excerpts.  Certainty additionally requires that no
kernel has completed yet (writes invalidate replicas invisibly) and that the
run evicted nothing (pass the run's eviction count).  Within those bounds the
rules never fire on a legal trace and convict seeded violations — the CLI
applies them to the data-distribution phase it constructs.
"""

from __future__ import annotations

import dataclasses
import re

from repro.sim.trace import Interval, TraceCategory, TraceRecorder
from repro.topology.platform import Platform
from repro.verify.base import Finding

_PASS = "trace"

#: the runtime's label of each transfer category, naming the tile (and, for
#: PtoP, both endpoints).  The race detector parses labels through here too.
TRANSFER_LABELS = {
    TraceCategory.MEMCPY_HTOD: re.compile(r"^h2d (?P<key>T\(\d+:\d+,\d+\))$"),
    TraceCategory.MEMCPY_DTOH: re.compile(r"^d2h (?P<key>T\(\d+:\d+,\d+\))$"),
    TraceCategory.MEMCPY_PTOP: re.compile(
        r"^p2p (?P<src>-?\d+)->(?P<dst>-?\d+) (?P<key>T\(\d+:\d+,\d+\))$"
    ),
}

_EPS = 1e-12


def _finding(code: str, subject: str, message: str) -> Finding:
    return Finding(_PASS, code, subject, message)


@dataclasses.dataclass(frozen=True, slots=True)
class Transfer:
    """One parsed memcpy interval."""

    key: str
    src: int | None  # None when the trace does not name the source (h2d)
    dst: int | None  # None for d2h (the host is the destination)
    start: float
    end: float
    category: TraceCategory


def parse_transfer(iv: Interval) -> Transfer | None:
    """The transfer a memcpy interval of :data:`TRANSFER_LABELS`' categories
    records, or ``None`` when its label does not parse (T001)."""
    match = TRANSFER_LABELS[iv.category].match(iv.label)
    if match is None:
        return None
    if iv.category is TraceCategory.MEMCPY_HTOD:
        src, dst = None, iv.device
    elif iv.category is TraceCategory.MEMCPY_DTOH:
        src, dst = iv.device, None
    else:
        src, dst = int(match["src"]), int(match["dst"])
    return Transfer(match["key"], src, dst, iv.start, iv.end, iv.category)


def _parse(trace: TraceRecorder) -> tuple[list[Transfer], list[Finding]]:
    transfers: list[Transfer] = []
    findings: list[Finding] = []
    for iv in trace:
        if iv.category not in TRANSFER_LABELS:
            continue
        transfer = parse_transfer(iv)
        if transfer is None:
            findings.append(
                _finding(
                    "T001",
                    iv.label or "<empty>",
                    f"unparseable {iv.category.value} label",
                )
            )
            continue
        transfers.append(transfer)
    return transfers, findings


def lint_trace(
    trace: TraceRecorder,
    platform: Platform | None = None,
    topology_aware: bool = False,
    evictions: int = 0,
    allow_seeded: bool = False,
) -> list[Finding]:
    """Lint one recorded trace; returns the (possibly empty) findings list."""
    transfers, findings = _parse(trace)
    # Earliest kernel completion per device (for provenance) and overall (for
    # the certainty window of the topology rules).
    kernel_first_end: dict[int, float] = {}
    first_kernel_end = float("inf")
    for iv in trace:
        if iv.category is TraceCategory.KERNEL:
            prev = kernel_first_end.get(iv.device)
            if prev is None or iv.end < prev:
                kernel_first_end[iv.device] = iv.end
            first_kernel_end = min(first_kernel_end, iv.end)
    devices = set(platform.device_ids()) if platform is not None else None

    # T002 / T003 -------------------------------------------------------------
    for tr in transfers:
        if tr.category is TraceCategory.MEMCPY_PTOP and tr.src == tr.dst:
            findings.append(
                _finding("T002", tr.key, f"PtoP transfer from {tr.src} to itself")
            )
        if devices is not None:
            for end in (tr.src, tr.dst):
                if end is not None and end not in devices:
                    findings.append(
                        _finding(
                            "T003",
                            tr.key,
                            f"transfer endpoint {end} is not a platform device",
                        )
                    )

    by_key: dict[str, list[Transfer]] = {}
    for tr in transfers:
        by_key.setdefault(tr.key, []).append(tr)
    topology_certain = (
        topology_aware and platform is not None and evictions == 0
    )
    for key, trs in by_key.items():
        trs.sort(key=lambda t: (t.start, t.end))
        inbound = [t for t in trs if t.dst is not None]

        # T004: overlapping H2D of the same tile into the same device (sweep
        # with a running horizon per destination).
        horizons: dict[int, float] = {}
        for tr in trs:
            if tr.category is not TraceCategory.MEMCPY_HTOD:
                continue
            horizon = horizons.get(tr.dst, float("-inf"))
            if tr.start < horizon - _EPS:
                findings.append(
                    _finding(
                        "T004",
                        key,
                        f"duplicate H2D to device {tr.dst}: starts at "
                        f"t={tr.start:.6g} while an earlier copy of the tile "
                        f"to the same device runs until t={horizon:.6g}; the "
                        "in-flight state should have deduplicated it",
                    )
                )
            horizons[tr.dst] = max(horizon, tr.end)

        for tr in trs:
            if tr.category is not TraceCategory.MEMCPY_PTOP:
                continue
            # T005: provenance of the source.
            delivered = any(
                t.dst == tr.src and t.end <= tr.start + _EPS for t in inbound
            )
            produced = kernel_first_end.get(tr.src, float("inf")) <= tr.start + _EPS
            if not delivered and not produced and not allow_seeded:
                findings.append(
                    _finding(
                        "T005",
                        key,
                        f"PtoP from device {tr.src} at t={tr.start:.6g} but no "
                        "transfer or kernel ever produced the tile there",
                    )
                )
            # T006: rank order, only inside the certainty window.
            if topology_certain and tr.start <= first_kernel_end + _EPS:
                certain = {
                    t.dst
                    for t in inbound
                    if t.end <= tr.start + _EPS and t.dst != tr.dst
                }
                certain.add(tr.src)
                best = platform.peers_by_rank(tr.dst, sorted(certain))[0]
                if platform.p2p_performance_rank(
                    best, tr.dst
                ) < platform.p2p_performance_rank(tr.src, tr.dst):
                    findings.append(
                        _finding(
                            "T006",
                            key,
                            f"PtoP into {tr.dst} sourced from {tr.src} "
                            f"although device {best} (better link rank) "
                            "certainly held the tile",
                        )
                    )
        # T007: H2D while some device certainly already held the tile.
        if topology_certain:
            for tr in trs:
                if (
                    tr.category is not TraceCategory.MEMCPY_HTOD
                    or tr.start > first_kernel_end + _EPS
                ):
                    continue
                holders = {
                    t.dst
                    for t in inbound
                    if t.end <= tr.start + _EPS and t.dst != tr.dst
                }
                if holders:
                    findings.append(
                        _finding(
                            "T007",
                            key,
                            f"H2D into {tr.dst} at t={tr.start:.6g} although "
                            f"device(s) {sorted(holders)} certainly held the "
                            "tile; the topology heuristic forwards "
                            "device-to-device instead",
                        )
                    )
    return findings
