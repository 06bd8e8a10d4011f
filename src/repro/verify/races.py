"""Vector-clock happens-before race detection over recorded traces.

The PR-1 trace linter (:mod:`repro.verify.trace_lint`) checks *rules* —
labels parse, PtoP sources have provenance, duplicate H2Ds are deduplicated.
Rules can only convict patterns someone anticipated.  This pass instead
reconstructs the **happens-before partial order** of a trace and convicts any
pair of *conflicting* tile accesses the order fails to relate — the classic
vector-clock race detector, adapted to a trace whose "threads" are device
streams plus the host DMA engine.  One adaptation matters: operations on a
single device overlap (the runtime runs compute and prefetch streams
concurrently), so a device is *not* a sequential process and a per-device
scalar clock component would be unsound.  The sound limit of the vector
clock — one component per event, represented as causal-past bitsets — is
what :func:`_assign_clocks` computes, with the same settle-on-start sweep a
per-process clock would use.

Model
-----
* **Threads** are the host (``HOST == -1``) and every device id that appears
  in the trace.  Two operations on the *same* thread are ordered only when
  one ends before the other starts — overlapping intervals on one device are
  concurrent streams (compute overlapping a prefetch), deliberately left
  unordered, exactly the concurrency the runtime exploits.
* **Events** span one or two threads.  A kernel occupies its device.  A
  transfer occupies both endpoints: ``h2d`` reads the host replica and writes
  the device replica (threads ``{HOST, dst}``), ``d2h`` the reverse, ``p2p``
  reads at the source and writes at the destination (threads ``{src, dst}``).
  Because transfers *bridge* threads, legal runs exhibit full causal chains
  in the trace itself: writer kernel → writeback → reload is three events
  chained through shared threads, and the vector clocks order the endpoints
  with no extra information.
* **Kernel tile accesses** are not in the trace (kernel labels are routine
  names); they are recovered from a retained :class:`TaskGraph` by matching
  each done task's ``(device, start_time, end_time)`` against kernel
  intervals.  The graph's successor edges also contribute explicit
  happens-before edges (``kernel_order``) — a write-after-read pair is
  ordered *by the dependence graph* and leaves no transfer chain in the
  trace, so without those edges every WAR pair would be a false positive.
  Without a graph (streaming/reclaiming runs) kernels carry no accesses and
  only transfer/transfer conflicts are checked — still enough to catch a
  duplicated DMA or a forged trace.

Conflicts
---------
* **R001** — two kernel writes to the same tile, unordered: concurrent
  writers produce a value that depends on execution interleaving.
* **R002** — a kernel write and *any* other access of the same tile,
  unordered (any location: a stale replica read concurrent with the writer
  is a coherence violation even on another device).
* **R003** — a transfer write and any access of the same ``(tile, replica
  location)``, unordered: two DMAs storming the same replica, or a replica
  read mid-overwrite.

The detector is validated the only way a detector can be: seeded-violation
tests construct traces with known races (including a write-write kernel
conflict whose events satisfy every trace-lint rule) and legal chained
variants of the same shape that must stay clean.
"""

from __future__ import annotations

import dataclasses
import heapq

from repro.runtime.dataflow import TaskGraph
from repro.sim.trace import TraceCategory, TraceRecorder
from repro.verify.base import Finding
from repro.verify.trace_lint import TRANSFER_LABELS, parse_transfer

_PASS = "races"

#: thread id of the host DMA engine / host memory.
HOST = -1

_EPS = 1e-12


@dataclasses.dataclass(frozen=True, slots=True)
class Access:
    """One replica touch: ``tile`` at ``location`` (device id or HOST)."""

    tile: str
    location: int
    writes: bool
    kernel: bool


@dataclasses.dataclass(slots=True)
class Event:
    """One trace interval lifted into the happens-before model."""

    seq: int
    label: str
    threads: tuple[int, ...]
    start: float
    end: float
    accesses: list[Access]
    #: causal-past clock, assigned by :func:`_assign_clocks`: bit ``i`` set
    #: iff event ``i`` happened-before this event.  A per-*device* scalar
    #: clock would be unsound here — operations on one device overlap
    #: (concurrent streams), so devices are not sequential processes; the
    #: sound degenerate vector clock has one component per event, which a
    #: bitset represents exactly.
    past: int = 0

    def happened_before(self, other: "Event") -> bool:
        """True when this event is in ``other``'s causal past."""
        return bool(other.past >> self.seq & 1)


def _events_from_trace(
    trace: TraceRecorder, graph: TaskGraph | None
) -> tuple[list[Event], list[tuple[int, int]]]:
    """Lift trace intervals into events; returns ``(events, extra_hb_edges)``.

    Extra edges are ``(pred_seq, succ_seq)`` pairs from the retained graph's
    successor relation, mapped onto kernel events.
    """
    events: list[Event] = []
    kernel_by_slot: dict[tuple[int, float, float], int] = {}
    for iv in trace:
        seq = len(events)
        if iv.category is TraceCategory.KERNEL:
            events.append(
                Event(seq, iv.label, (iv.device,), iv.start, iv.end, [])
            )
            kernel_by_slot[(iv.device, iv.start, iv.end)] = seq
            continue
        if iv.category not in TRANSFER_LABELS:
            continue
        transfer = parse_transfer(iv)
        if transfer is None:
            continue  # trace_lint reports T001
        src = HOST if transfer.src is None else transfer.src
        dst = HOST if transfer.dst is None else transfer.dst
        if iv.category is TraceCategory.MEMCPY_PTOP and src == dst:
            continue  # trace_lint reports T002
        # The transfer reads the source replica and writes the destination.
        events.append(
            Event(
                seq, iv.label, (src, dst), iv.start, iv.end,
                [Access(transfer.key, src, False, False),
                 Access(transfer.key, dst, True, False)],
            )
        )

    extra_edges: list[tuple[int, int]] = []
    if graph is not None and graph.retain_tasks:
        task_event: dict[int, int] = {}
        for task in graph.tasks:
            if task.device is None or task.state != "done":
                continue
            seq = kernel_by_slot.get(
                (task.device, task.start_time, task.end_time)
            )
            if seq is None:
                continue
            task_event[task.uid] = seq
            event = events[seq]
            for access in task.accesses:
                event.accesses.append(
                    Access(repr(access.tile.key), task.device,
                           access.writes, True)
                )
        for task in graph.tasks:
            pred = task_event.get(task.uid)
            if pred is None:
                continue
            for succ in task.successors:
                succ_seq = task_event.get(succ.uid)
                if succ_seq is not None:
                    extra_edges.append((pred, succ_seq))
    return events, extra_edges


def _assign_clocks(events: list[Event], extra_edges: list[tuple[int, int]]) -> None:
    """Compute each event's causal-past clock in start order.

    The base happens-before edges are ``a → b`` iff ``a`` and ``b`` share an
    endpoint (device or host) and ``a.end <= b.start`` — two operations on
    one endpoint that *overlap* are concurrent streams and stay unordered.
    Per endpoint, a heap of ``(end, seq)`` holds events still in flight; when
    a later event on that endpoint starts, every entry that has ended is
    settled into the endpoint's accumulated past-set, which the starting
    event joins (transitively: settling merges the finished event's own
    past).  Explicit graph edges (``extra_edges``) join the predecessor's
    past directly.  ``O(n log n)`` heap work; set joins are bitwise ORs.
    """
    order = sorted(
        range(len(events)), key=lambda i: (events[i].start, events[i].end, i)
    )
    position = {seq: idx for idx, seq in enumerate(order)}
    settled: dict[int, int] = {}
    in_flight: dict[int, list[tuple[float, int]]] = {}
    preds: dict[int, list[int]] = {}
    for pred, succ in extra_edges:
        # An edge is usable only when the predecessor starts first; a
        # "successor" starting before its predecessor is itself racy and
        # must be convicted by the conflict check, not hidden by the edge.
        if position[pred] < position[succ]:
            preds.setdefault(succ, []).append(pred)

    for seq in order:
        event = events[seq]
        past = 0
        for thread in event.threads:
            heap = in_flight.setdefault(thread, [])
            acc = settled.get(thread, 0)
            while heap and heap[0][0] <= event.start + _EPS:
                _end, done_seq = heapq.heappop(heap)
                acc |= events[done_seq].past | (1 << done_seq)
            settled[thread] = acc
            past |= acc
        for pred in preds.get(seq, ()):
            past |= events[pred].past | (1 << pred)
        event.past = past
        for thread in event.threads:
            heapq.heappush(in_flight[thread], (event.end, seq))


def _ordered(a: Event, b: Event) -> bool:
    return a.happened_before(b) or b.happened_before(a)


def detect_races(
    trace: TraceRecorder, graph: TaskGraph | None = None
) -> list[Finding]:
    """Find unordered conflicting tile accesses in a recorded trace.

    Pass the run's :class:`TaskGraph` (retained mode) to include kernel tile
    accesses and dependence-edge ordering; without it only transfer/transfer
    conflicts are checked.
    """
    events, extra_edges = _events_from_trace(trace, graph)
    _assign_clocks(events, extra_edges)

    by_tile: dict[str, list[tuple[Event, Access]]] = {}
    for event in events:
        for access in event.accesses:
            by_tile.setdefault(access.tile, []).append((event, access))

    findings: list[Finding] = []
    reported: set[tuple[str, int, int]] = set()

    def report(code: str, tile: str, e1: Event, e2: Event, message: str) -> None:
        pair = (code, min(e1.seq, e2.seq), max(e1.seq, e2.seq))
        if pair not in reported:
            reported.add(pair)
            findings.append(Finding(_PASS, code, tile, message))

    for tile, touches in by_tile.items():
        touches.sort(key=lambda ea: (ea[0].start, ea[0].seq))
        for i, (e1, a1) in enumerate(touches):
            for e2, a2 in touches[i + 1:]:
                if e1 is e2:
                    continue  # a transfer reads and writes the same tile
                if not (a1.writes or a2.writes):
                    continue
                if _ordered(e1, e2):
                    continue
                if a1.kernel and a2.kernel and a1.writes and a2.writes:
                    report(
                        "R001", tile, e1, e2,
                        f"unordered write-write kernel conflict on {tile}: "
                        f"'{e1.label}' on device {a1.location} "
                        f"[{e1.start:.6g}, {e1.end:.6g}) and '{e2.label}' on "
                        f"device {a2.location} [{e2.start:.6g}, {e2.end:.6g}) "
                        "— the result depends on interleaving",
                    )
                elif (a1.kernel and a1.writes) or (a2.kernel and a2.writes):
                    writer, other = (
                        (e1, e2) if a1.kernel and a1.writes else (e2, e1)
                    )
                    report(
                        "R002", tile, e1, e2,
                        f"kernel write to {tile} ('{writer.label}' "
                        f"[{writer.start:.6g}, {writer.end:.6g})) is "
                        f"unordered against '{other.label}' "
                        f"[{other.start:.6g}, {other.end:.6g}) touching the "
                        "same tile",
                    )
                elif a1.location == a2.location:
                    report(
                        "R003", tile, e1, e2,
                        f"unordered replica conflict on {tile} at location "
                        f"{a1.location}: '{e1.label}' "
                        f"[{e1.start:.6g}, {e1.end:.6g}) vs '{e2.label}' "
                        f"[{e2.start:.6g}, {e2.end:.6g})",
                    )
    return findings
