"""Dataflow dependency construction.

XKaapi computes true data-flow dependencies from the access modes of tasks in
program (submission) order — "any sequence of user function calls generating
tasks would allow to define point-to-point synchronization between tasks among
different function calls" (paper §IV-F).  :class:`TaskGraph` implements that
rule set per tile:

* a **reader** depends on the last writer of the tile;
* a **writer** depends on the last writer *and* on every reader since then
  (write-after-read), then becomes the new last writer and clears the reader
  set.

Because dependencies cross routine boundaries, submitting TRSM tasks followed
by GEMM tasks composes them automatically — the property the composition
benchmark (Fig. 8/9) measures.

The graph does not need the whole DAG resident, exactly like XKaapi: the
per-tile window (last writer + readers since) is the only state dependency
derivation ever consults, so tasks can be *added while earlier ones already
executed* (streaming submission) and *retired once done* (their ``successors``
and ``accesses`` dropped, their ``_TileHistory`` entries nulled or deleted).
Retained mode (``retain_tasks=True``, the default) additionally keeps the full
task list for debug passes — :meth:`validate_acyclic`, the verification subsystem,
and :meth:`critical_path_priorities` (which DMDAS needs, so DMDAS runs
require retained mode).
"""

from __future__ import annotations

import dataclasses

from repro.errors import TaskGraphError
from repro.memory.tile import TileKey
from repro.runtime.task import Task


@dataclasses.dataclass(slots=True)
class _TileHistory:
    """Per-tile dependency window.

    ``last_writer_uid`` outlives ``last_writer``: retirement nulls the task
    reference (so finished tasks can be collected) but keeps the uid, which
    is all the dependency rule needs for a *done* predecessor — dep dedupe
    and edge accounting stay bit-identical to the retain-everything path.
    ``readers_since_write`` maps reader uid -> task, in insertion order;
    retirement deletes the entry and releases an emptied dict's table (see
    :meth:`TaskGraph._retire`).
    """

    last_writer: Task | None = None
    last_writer_uid: int = -1
    readers_since_write: dict[int, Task] = dataclasses.field(
        default_factory=dict
    )


class TaskGraph:
    """A DAG of tasks built incrementally from access declarations."""

    def __init__(self, retain_tasks: bool = True) -> None:
        self._history: dict[TileKey, _TileHistory] = {}
        #: retained mode keeps every task for debug passes; reclaiming mode
        #: only keeps counters and drops a task's references once it is done.
        self.retain_tasks = retain_tasks
        self._tasks: list[Task] = []
        #: dep-dedupe scratch, reused across :meth:`add` calls (the graph is
        #: built single-threaded and the set never escapes the call).
        self._deps_buf: set[int] = set()
        self._added = 0
        self._done = 0
        #: tasks seen entering the "ready" state, pruned lazily by
        #: :meth:`ready_tasks`; a task becomes ready at most once, so the
        #: buffer is append-only between queries.  Maintained in retained
        #: mode only — nothing on the execution path consumes it, and in
        #: reclaiming mode it would pin every task ever submitted.
        self._ready_buffer: list[Task] = []

    # -------------------------------------------------------------- building

    def add(self, task: Task) -> Task:
        """Insert ``task``, deriving dependencies from its accesses.

        The dependency rule is inlined (no per-predecessor helper call): the
        graph build runs once per task of every run, and closure dispatch per
        edge was a visible slice of the submission phase.  Semantics per
        predecessor: dedupe on uid (a task never depends on itself) and
        register a pending-count successor link unless the predecessor
        already finished.
        """
        if task.state != "created":
            raise TaskGraphError(f"{task!r} already belongs to a graph")
        deps = self._deps_buf  # uids, to dedupe multi-tile dependencies
        deps.clear()
        uid = task.uid
        unfinished = 0

        history = self._history
        for access in task.accesses:
            key = access.tile.key
            hist = history.get(key)
            if hist is None:
                hist = history[key] = _TileHistory()
            wuid = hist.last_writer_uid
            if access.writes:
                if wuid >= 0 and wuid != uid and wuid not in deps:
                    deps.add(wuid)
                    writer = hist.last_writer
                    if writer is not None and writer.state != "done":
                        writer.successors.append(task)
                        unfinished += 1
                readers = hist.readers_since_write
                if readers:  # empty for write-chain tiles — skip the view
                    for ruid, reader in readers.items():
                        if ruid != uid and ruid not in deps:
                            deps.add(ruid)
                            if reader.state != "done":
                                reader.successors.append(task)
                                unfinished += 1
                    readers.clear()
                # History updated in the same pass: the uid guards above
                # already exclude self-dependencies, so a task touching one
                # tile twice sees its own earlier access filtered out rather
                # than deferred — same dependencies, one traversal.
                hist.last_writer = task
                hist.last_writer_uid = uid
            else:
                if wuid >= 0 and wuid != uid and wuid not in deps:
                    deps.add(wuid)
                    writer = hist.last_writer
                    if writer is not None and writer.state != "done":
                        writer.successors.append(task)
                        unfinished += 1
                hist.readers_since_write[uid] = task
        task.unfinished_predecessors += unfinished
        if task.unfinished_predecessors == 0:
            task.state = "ready"
            if self.retain_tasks:
                self._ready_buffer.append(task)
        else:
            task.state = "waiting"
        self._added += 1
        if self.retain_tasks:
            self._tasks.append(task)
        return task

    # -------------------------------------------------------------- queries

    @property
    def tasks(self) -> list[Task]:
        """Every task ever added, in submission order (retained mode only)."""
        if not self.retain_tasks:
            raise TaskGraphError(
                "TaskGraph(retain_tasks=False) reclaims finished tasks and "
                "keeps no task list; use num_tasks/num_done, or build the "
                "graph in retained mode for debug passes"
            )
        return self._tasks

    @property
    def num_tasks(self) -> int:
        """Number of tasks ever added (cheap; works in both modes)."""
        return self._added

    @property
    def num_done(self) -> int:
        return self._done

    def ready_tasks(self) -> list[Task]:
        """Tasks currently in the "ready" state, in became-ready order.

        Amortized O(ready): the buffer only ever receives a task once (when
        it becomes ready) and entries that moved on are dropped here, instead
        of rescanning every task in the graph per query.  The pruned buffer
        *is* the returned list — one fresh list per query, no second copy —
        so callers must treat it as a read-only snapshot.
        """
        if not self.retain_tasks:
            raise TaskGraphError(
                "ready_tasks() requires retain_tasks=True (the reclaiming "
                "graph keeps no ready buffer; the executor tracks readiness "
                "incrementally through complete())"
            )
        still_ready = [t for t in self._ready_buffer if t.state == "ready"]
        self._ready_buffer = still_ready
        return still_ready

    def last_writer(self, key: TileKey) -> Task | None:
        hist = self._history.get(key)
        return hist.last_writer if hist else None

    def complete(self, task: Task) -> list[Task]:
        """Mark ``task`` done; return successors that became ready."""
        if task.state == "done":
            raise TaskGraphError(f"{task!r} completed twice")
        task.state = "done"
        self._done += 1
        newly_ready: list[Task] = []
        for succ in task.successors:
            succ.unfinished_predecessors -= 1
            if succ.unfinished_predecessors < 0:
                raise TaskGraphError(f"{succ!r}: negative predecessor count")
            if succ.unfinished_predecessors == 0 and succ.state == "waiting":
                succ.state = "ready"
                newly_ready.append(succ)
        if self.retain_tasks:
            self._ready_buffer.extend(newly_ready)
        else:
            self._retire(task)
        return newly_ready

    def _retire(self, task: Task) -> None:
        """Drop every graph-held reference to a finished task.

        Called only in reclaiming mode.  A tile whose last writer this was
        keeps the uid (dependency derivation for *future* streamed tasks
        still dedupes exactly as if the task were resident) but loses the
        object reference.  Reader entries are deleted outright: a done
        reader adds no edge, and the uid dedupe only spans one :meth:`add`
        call, so a tile that is never rewritten (GEMM's A and B) does not
        keep one entry per reader for the whole run.  A reader dict that the
        deletion empties is cleared, which releases the hash table it grew
        to at its busiest moment.  The task sheds its own
        fan-out so a retired region of the DAG is collectible as soon as the
        executor's in-flight events release it.
        """
        history = self._history
        uid = task.uid
        for access in task.accesses:
            hist = history.get(access.tile.key)
            if hist is None:
                continue
            if access.writes:
                if hist.last_writer is task:
                    hist.last_writer = None
            if access.reads:
                readers = hist.readers_since_write
                readers.pop(uid, None)
                if not readers:
                    # pop() keeps the table at its busiest size; clear() on
                    # the emptied dict frees it.
                    readers.clear()
        task.successors.clear()
        task.accesses = ()
        task.access_keys = ()
        task.write_accesses = ()
        task.output_tile = None

    def all_done(self) -> bool:
        return self._done == self._added

    def critical_path_priorities(self) -> None:
        """Assign each task a priority = longest flop path to a sink.

        Used by priority-aware schedulers (DMDAS); reverse-topological sweep
        over the submission order, which is already a topological order.
        Requires retained mode: the sweep needs every task and its successor
        list resident, which is exactly what reclamation drops.
        """
        for task in reversed(self.tasks):
            best = 0
            for succ in task.successors:
                best = max(best, succ.priority)
            task.priority = best + max(1, int(task.flops // 1e6))

    def validate_acyclic(self) -> None:
        """Sanity check: submission order must be a topological order.

        Retained mode only (it walks the materialized task list).
        """
        position = {t.uid: idx for idx, t in enumerate(self.tasks)}
        for t in self.tasks:
            for succ in t.successors:
                if position[succ.uid] <= position[t.uid]:
                    raise TaskGraphError(
                        f"edge {t.uid}->{succ.uid} violates submission order"
                    )
