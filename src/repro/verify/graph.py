"""Task-graph race & deadlock detector.

:class:`~repro.runtime.dataflow.TaskGraph` derives dependencies from tile
access modes.  A bug there (a forgotten write-after-read edge, a duplicate
successor entry, a miscounted predecessor) silently produces racy schedules
that still *complete* — the makespans are just wrong.  This pass recomputes
the conflict relation from first principles and certifies the graph against
it:

* **structure** — every successor is a graph member, no self-dependencies, no
  duplicate successor entries, every edge goes forward in submission order
  (submission order must be a topological order), and a Kahn sweep proves the
  successor relation acyclic even for graphs whose ``tasks`` list was
  tampered with;
* **counters** — each task's ``unfinished_predecessors`` equals the number of
  its distinct not-yet-done predecessors (the executor's readiness protocol
  relies on this exactly);
* **races** — replaying each tile's access sequence, every RAW, WAR and WAW
  conflicting pair must be *ordered*: either a dependency path connects them
  (reachability over the DAG, computed once with per-task bitsets in
  submission/topological order — not an all-pairs search), or the earlier
  task finished before the later one started (predecessors that were already
  ``done`` at submission time leave no edge behind; execution times prove the
  ordering instead).

Checking only each accessor against the tile's *current* writer/reader window
(the same interval the builder maintains) is sufficient: ordering of the
remaining conflicting pairs follows by transitivity of paths and of virtual
time.
"""

from __future__ import annotations

from repro.runtime.dataflow import TaskGraph
from repro.runtime.task import Task
from repro.verify.base import Finding

_PASS = "graph"

#: tolerance when comparing virtual times of conflicting kernels.
_EPS = 1e-12


def _finding(code: str, subject: str, message: str) -> Finding:
    return Finding(_PASS, code, subject, message)


def _structure_findings(graph: TaskGraph) -> list[Finding]:
    """Self-deps, unknown/duplicate successors, backward edges, cycles."""
    findings: list[Finding] = []
    position = {id(t): idx for idx, t in enumerate(graph.tasks)}
    for task in graph.tasks:
        seen: set[int] = set()
        for succ in task.successors:
            if succ is task:
                findings.append(
                    _finding("G010", f"Task#{task.uid}", "task depends on itself")
                )
                continue
            if id(succ) not in position:
                findings.append(
                    _finding(
                        "G011",
                        f"Task#{task.uid}->Task#{succ.uid}",
                        "successor is not a member of the graph",
                    )
                )
                continue
            if id(succ) in seen:
                findings.append(
                    _finding(
                        "G012",
                        f"Task#{task.uid}->Task#{succ.uid}",
                        "duplicate successor entry (would double-decrement "
                        "the predecessor counter)",
                    )
                )
            seen.add(id(succ))
            if position[id(succ)] <= position[id(task)]:
                findings.append(
                    _finding(
                        "G013",
                        f"Task#{task.uid}->Task#{succ.uid}",
                        "edge violates submission order (cycle or reordered "
                        "submission)",
                    )
                )
    # Kahn's algorithm over the successor relation: catches cycles even when
    # the backward-edge check above is fooled (e.g. a tasks list reordered
    # after tampering).
    indegree = {id(t): 0 for t in graph.tasks}
    for task in graph.tasks:
        for succ in task.successors:
            if id(succ) in indegree and succ is not task:
                indegree[id(succ)] += 1
    frontier = [t for t in graph.tasks if indegree[id(t)] == 0]
    visited = 0
    while frontier:
        task = frontier.pop()
        visited += 1
        for succ in task.successors:
            if id(succ) not in indegree or succ is task:
                continue
            indegree[id(succ)] -= 1
            if indegree[id(succ)] == 0:
                frontier.append(succ)
    if visited < len(graph.tasks):
        findings.append(
            _finding(
                "G014",
                "graph",
                f"dependency cycle: {len(graph.tasks) - visited} task(s) "
                "unreachable by a topological sweep (deadlock at runtime)",
            )
        )
    return findings


def _counter_findings(graph: TaskGraph) -> list[Finding]:
    """``unfinished_predecessors`` must match the actual edge set."""
    findings: list[Finding] = []
    pending: dict[int, int] = {id(t): 0 for t in graph.tasks}
    for task in graph.tasks:
        counted: set[int] = set()
        for succ in task.successors:
            if succ is task or id(succ) not in pending or id(succ) in counted:
                continue
            counted.add(id(succ))
            if task.state != "done":
                pending[id(succ)] += 1
    for task in graph.tasks:
        expected = pending[id(task)]
        if task.state == "done" and expected > 0:
            findings.append(
                _finding(
                    "G020",
                    f"Task#{task.uid}",
                    f"task is done but {expected} predecessor(s) are not "
                    "(executed before its dependencies)",
                )
            )
        if task.unfinished_predecessors != expected:
            findings.append(
                _finding(
                    "G021",
                    f"Task#{task.uid}",
                    f"unfinished_predecessors={task.unfinished_predecessors} "
                    f"but {expected} unfinished predecessor edge(s) exist",
                )
            )
    return findings


def _reachability(tasks: list[Task]) -> dict[int, int]:
    """Bitset of tasks reachable from each task (index bits, id() keyed).

    One reverse sweep over the submission order; ``reach[t]`` has bit ``i``
    set iff ``tasks[i]`` is reachable from ``t`` through successor edges.
    Only forward edges are followed — structural findings cover the rest.
    """
    position = {id(t): idx for idx, t in enumerate(tasks)}
    reach: dict[int, int] = {}
    for task in reversed(tasks):
        mask = 0
        my_pos = position[id(task)]
        for succ in task.successors:
            pos = position.get(id(succ))
            if pos is None or pos <= my_pos:
                continue
            mask |= (1 << pos) | reach.get(id(succ), 0)
        reach[id(task)] = mask
    return reach


def _ordered(
    earlier: Task,
    later: Task,
    reach: dict[int, int],
    position: dict[int, int],
) -> bool:
    """Is the conflicting pair provably ordered?"""
    pos = position.get(id(later))
    if pos is not None and reach.get(id(earlier), 0) >> pos & 1:
        return True  # a dependency path orders the pair
    # No path: legal only when `earlier` was already done at submission time
    # of `later` (the builder drops edges to done predecessors).  Execution
    # must then show `earlier` finished before `later` started.
    if earlier.state != "done":
        return False
    if later.state in ("running", "done"):
        return earlier.end_time <= later.start_time + _EPS
    return True  # later has not started; ordering cannot be violated yet


def _race_findings(graph: TaskGraph) -> list[Finding]:
    """Replay per-tile access sequences and certify conflict ordering."""
    findings: list[Finding] = []
    position = {id(t): idx for idx, t in enumerate(graph.tasks)}
    reach = _reachability(graph.tasks)

    class _Window:
        __slots__ = ("last_writer", "readers")

        def __init__(self) -> None:
            self.last_writer: Task | None = None
            self.readers: list[Task] = []

    windows: dict[object, _Window] = {}
    for task in graph.tasks:
        # Dedupe per-task tile accesses, merging modes: a task that reads and
        # writes one tile (or lists it twice) conflicts with *other* tasks
        # once, with the union of its modes, and never with itself.
        merged: dict[object, list[bool]] = {}
        for access in task.accesses:
            entry = merged.setdefault(access.tile.key, [False, False])
            entry[0] |= access.reads
            entry[1] |= access.writes
        for key, (_reads, writes) in merged.items():
            window = windows.setdefault(key, _Window())
            conflicts: list[tuple[Task, str]] = []
            if window.last_writer is not None and window.last_writer is not task:
                conflicts.append(
                    (window.last_writer, "RAW" if not writes else "WAW")
                )
            if writes:
                conflicts.extend(
                    (r, "WAR") for r in window.readers if r is not task
                )
            for pred, kind in conflicts:
                if not _ordered(pred, task, reach, position):
                    findings.append(
                        _finding(
                            "G001",
                            f"Task#{pred.uid}->Task#{task.uid}",
                            f"{kind} conflict on {key!r} is not ordered by any "
                            "dependency path (data race)",
                        )
                    )
            if writes:
                window.last_writer = task
                window.readers = []
            else:
                window.readers.append(task)
    return findings


def verify_graph(graph: TaskGraph) -> list[Finding]:
    """Run every graph check; returns the (possibly empty) findings list."""
    findings = _structure_findings(graph)
    findings += _counter_findings(graph)
    findings += _race_findings(graph)
    return findings

