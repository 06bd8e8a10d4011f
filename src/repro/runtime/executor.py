"""Event-driven task execution.

The :class:`Executor` drives the whole machine inside virtual time:

* tasks are *submitted* sequentially by the host thread, paying the runtime's
  per-task creation overhead (this is why small matrices expose runtime
  weight, §I);
* a task becomes *schedulable* once its dependencies completed and its
  submission instant passed; it then enters the scheduler;
* each device worker keeps up to ``pipeline_window`` tasks in flight: when a
  task is launched, its input transfers are reserved on the fabric immediately
  (the DMA queues), and the kernel is enqueued on the device's compute stream
  with ``earliest = max(input arrival times)`` — giving the
  transfer/computation overlap of XKaapi's stream-per-operation-type model
  (§II-B);
* at kernel completion the numeric kernel (if any) executes over the device
  arrays, written tiles are registered with the coherence directory, and
  newly-ready successors wake the workers.

Host flushes (the :class:`~repro.runtime.task.FlushTask` objects that
``memory_coherent_async`` submits) skip the device scheduler entirely: when
schedulable they trigger a D2H write-back, implementing XKBLAS's lazy
coherence (§IV-F).

Submission comes in two shapes with identical virtual-time accounting:

* :meth:`Executor.submit` — the materialized path: every task object exists
  before the simulation runs, one submission instant per task;
* :meth:`Executor.submit_stream` — the streaming path: tasks are *pulled*
  from an iterable one at a time, each pull happening at the previous task's
  submission instant (which is exactly when the simulated host thread frees
  up to create the next task).  The clock arithmetic is the same
  ``max(submit_clock, now) + task_overhead`` recurrence, so makespans,
  transfer stats and event counts are bit-identical to the materialized
  path — but only a bounded window of the task graph is ever resident,
  which is what lets million-task graphs run in flat memory (paired with
  ``TaskGraph(retain_tasks=False)`` reclamation).

The ``stream_window`` admission bound makes the residency claim real: since
per-task submission overhead (µs) is orders of magnitude below kernel times
(ms), an unthrottled stream would materialize the whole graph in the opening
instants of virtual time.  Once ``stream_window`` tasks are live the pull
chain pauses and completions resume it — exactly StarPU's task-window
submission throttling.  Graphs that never reach the window (all golden-sized
points) keep bit-identical accounting; beyond it, submission instants shift
to completion-driven ones, which can perturb makespans slightly and is the
documented price of flat memory (see DESIGN §9).

Submission pump
---------------

Every submission instant runs through the *submission pump*
(:meth:`Executor._pump`).  Each submission reserves its own engine sequence
number at intent time (:meth:`Simulator.reserve_seq`), so every same-instant
tie-break is decided exactly as if one engine event had been posted per
submission; but only the *first* pending submission owns a heap entry.  When
the pump fires it processes its submission and then keeps folding
consecutive pending submissions into the same engine event, for as long as
(a) the next pending ``(time, seq)`` precedes everything on the heap — i.e.
the engine would have dispatched it next anyway — and (b) it does not pass
the engine's ``inline_horizon`` (a ``run(until=...)`` horizon).  Otherwise
the pump re-arms a heap entry carrying the next pending submission's
reserved key and yields.  ``run(max_events=...)`` sets the horizon to
``-inf``, so the pump then dispatches once per submission: event budgets
stay exact, and that *unfolded* run is the reference the folded one is
tested against.  Folding changes no virtual-time observable (makespans,
transfer stats, task start/end times, scheduler decisions); only
:attr:`Simulator.events_fired` drops, which is the point — see perfbench's
``events_per_task`` column.

Tracing observes the pump without changing it: intervals are recorded by
kernel launches and the transfer path, never by a submission, so a traced
run executes exactly what an untraced one does, event count included.
Completions fold their wake-up and successor launches into the completion
event itself (``_complete_task`` → ``_finish`` → ``_wake_all`` runs inline)
— the same-instant coalescing there is achieved by skipping provably-no-op
work (window-full workers are masked out of the wake scan, an empty
scheduler returns after the rotation advance) rather than by reordering wake
calls, which measurably perturbs the recorded schedules (the scan-origin
rotation is part of them).
"""

from __future__ import annotations

import dataclasses
from collections import deque

from repro.errors import CoherenceError, SchedulingError
from repro.memory.coherence import ReplicaState
from repro.runtime.dataflow import TaskGraph
from repro.runtime.scheduler.base import Scheduler, SchedulerContext
from repro.runtime.task import FlushTask, Task
from repro.runtime.transfer import TransferManager
from repro.sim.engine import Simulator
from repro.sim.stream import Stream
from repro.sim.trace import TraceCategory, TraceRecorder
from repro.topology.platform import Platform


@dataclasses.dataclass(slots=True)
class _Worker:
    device: int
    #: the device's one compute engine; the wake gate and the load queries
    #: read its ``busy_until`` on every visit.
    stream: Stream
    window: int
    #: inflight count below which a busy worker may still steal
    #: (max(2, window // 3), precomputed — consulted on every wake round).
    steal_threshold: int = 2
    inflight: int = 0


class Executor:
    """Binds graph + scheduler + transfer manager to the simulator."""

    def __init__(
        self,
        sim: Simulator,
        platform: Platform,
        scheduler: Scheduler,
        transfer: TransferManager,
        trace: TraceRecorder,
        task_overhead: float,
        pop_overhead: float,
        pipeline_window: int,
        overlap: bool = True,
        retain_inputs: bool = True,
        retain_tasks: bool = True,
        stream_window: int | None = 8192,
    ) -> None:
        self.sim = sim
        self.platform = platform
        self.scheduler = scheduler
        self.transfer = transfer
        self.trace = trace
        self.graph = TaskGraph(retain_tasks=retain_tasks)
        self.task_overhead = task_overhead
        self.pop_overhead = pop_overhead
        self.overlap = overlap
        self.retain_inputs = retain_inputs
        # One *compute engine* per device: concurrent kernel streams on a real
        # GPU share the SMs, so throughput never exceeds one kernel's rate.
        # Multiple logical streams show up as the lookahead window (transfers
        # of queued tasks overlap the running kernel), not as extra flop rate.
        self.workers = [
            _Worker(
                device=dev,
                stream=Stream(sim, name=f"gpu{dev}-compute"),
                window=pipeline_window,
                steal_threshold=max(2, pipeline_window // 3),
            )
            for dev in platform.device_ids()
        ]
        self.ctx = SchedulerContext(
            platform=platform,
            directory=transfer.directory,
            transfer=transfer,
            device_load=self._device_load,
            device_idle=self._device_idle,
            device_loads=self._device_loads,
        )
        self._submit_clock = 0.0
        self._wake_origin = 0
        #: queued task iterators for streaming submission, drained in order.
        #: While a drain is active, direct ``submit()`` calls append behind
        #: it so the host thread's submission order (and its per-task
        #: overhead charges) match the materialized path exactly.
        self._pending_streams: deque = deque()
        self._stream_active = False
        #: admission window for streamed submission: while this many tasks
        #: are live (submitted, not yet retired), the pull chain pauses and
        #: resumes on completions — the bounded task window of real runtimes
        #: (StarPU's submission throttling, XKaapi's bounded frames).  Graphs
        #: smaller than the window never pause, so their virtual-time
        #: accounting is bit-identical to the materialized path; larger
        #: graphs trade exact submission instants for flat memory.
        self._stream_window = stream_window
        self._stream_paused = False
        #: pending submissions: ``(time, seq, task, streamed)`` in
        #: nondecreasing ``(time, seq)`` order.  Only the head owns a heap
        #: entry; the pump folds the rest inline when the engine would have
        #: dispatched them next anyway (see module docstring).
        self._submissions: deque = deque()
        self._pumping = False
        self._all_workers_mask = (1 << len(self.workers)) - 1
        self._num_workers = len(self.workers)
        #: precomputed visit orders for the wake scan: ``_rot_orders[origin]``
        #: holds ``(worker, bit)`` pairs in the exact order a wake starting at
        #: ``origin`` visits them.  Walking one tuple and testing membership
        #: bits is cheaper than extracting/rotating set bits per visit — the
        #: wake loop is the hottest code in the runtime, and whenever work is
        #: stealable every worker is a candidate, so walking candidate bits
        #: would not shorten the visit list.
        nw = len(self.workers)
        self._rot_orders = tuple(
            tuple(
                (self.workers[(origin + i) % nw], 1 << ((origin + i) % nw))
                for i in range(nw)
            )
            for origin in range(nw)
        )
        #: bitmask of workers whose pipeline window is full — maintained by
        #: launch/completion so a wake scan skips them without a visit.
        self._full_mask = 0
        self._loads_buf = [0.0] * len(self.workers)
        #: virtual time of the last wake that completed with the wake-visible
        #: state unchanged since (-1.0 = dirty).  See _wake_all for the
        #: invariant; _enqueue and _complete_task dirty it.
        self._wake_clean_at = -1.0

    # ------------------------------------------------------------ submission

    def submit(self, task: Task) -> Task:
        """Add ``task`` to the graph and schedule its submission instant.

        While a streamed drain is active the task is queued behind it (the
        simulated host thread is still busy creating the streamed tasks), so
        interleaving ``submit_stream`` and ``submit`` keeps program order.
        """
        if self._stream_active:
            self._pending_streams.append(iter((task,)))
            return task
        self._admit(task, streamed=False)
        return task

    def submit_stream(self, tasks) -> None:
        """Submit tasks from an iterable, pulling them lazily.

        Only one task of the stream is materialized ahead of the simulation:
        the next task is pulled at the previous one's submission instant —
        the same moment the simulated host thread becomes free to create it —
        so the ``task_overhead`` recurrence, the submission order and the
        engine event count are identical to :meth:`submit` over the
        materialized list.
        """
        self._pending_streams.append(iter(tasks))
        if not self._stream_active:
            self._stream_active = True
            self._pull_next()

    def _pull_next(self) -> None:
        """Pull one task from the pending streams; deactivate when drained."""
        window = self._stream_window
        if (
            window is not None
            and self.graph.num_tasks - self.graph.num_done >= window
        ):
            self._stream_paused = True
            return
        streams = self._pending_streams
        while streams:
            task = next(streams[0], None)
            if task is None:
                streams.popleft()
                continue
            self._admit(task, streamed=True)
            return
        self._stream_active = False

    def _admit(self, task: Task, streamed: bool) -> None:
        """Add ``task`` to the graph and queue its submission instant.

        The instant follows the host thread's ``max(submit_clock, now) +
        task_overhead`` recurrence; its engine ``seq`` is reserved now, and
        the pump is armed if no submission is pending.
        """
        self.graph.add(task)
        sim = self.sim
        clock = self._submit_clock
        now = sim.now
        if now > clock:
            clock = now
        t = self._submit_clock = clock + self.task_overhead
        seq = sim.reserve_seq()
        pending = self._submissions
        if not pending and not self._pumping:
            sim.post_reserved(t, seq, self._pump)
        pending.append((t, seq, task, streamed))

    def _pump(self) -> None:
        """Submission pump: one engine event, many submission instants.

        Fires as the heap entry of the head of ``_submissions``; after
        processing it, keeps folding the next pending submission into this
        same engine event exactly when the engine itself would have
        dispatched it next — its ``(time, seq)`` strictly precedes the heap
        top (reserved seqs make the comparison exact, including same-instant
        ties) and does not pass ``inline_horizon``.  Otherwise it re-arms a
        heap entry under the next submission's reserved key and returns.
        Streamed entries pull their successor *before* being enqueued, so
        the successor's submission is queued ahead of whatever this task's
        enqueue posts — as in the materialized path, where every submission
        pre-dates every launch and completion.
        """
        sim = self.sim
        # Engine-owned, never rebound; read-only ``heap[0]`` peek below.
        # Everything in this loop is O(1) per folded submission; the
        # streamed-window resume path (``_pull_next``) is two counter
        # comparisons, not a scan.
        heap = sim._heap
        pending = self._submissions
        if not pending:  # pragma: no cover - defensive; invariant: armed ⇒ pending
            return
        self._pumping = True
        try:
            while True:
                t, _seq, task, streamed = pending.popleft()
                sim.now = t
                if streamed:
                    self._pull_next()
                task.submitted = True
                if task.state == "ready":
                    self._enqueue(task)
                if not pending:
                    return
                head = pending[0]
                t2 = head[0]
                if t2 > sim.inline_horizon:
                    sim.post_reserved(t2, head[1], self._pump)
                    return
                if heap:
                    top = heap[0]
                    tt = top[0]
                    if tt < t2 or (tt == t2 and top[1] < head[1]):
                        sim.post_reserved(t2, head[1], self._pump)
                        return
        finally:
            self._pumping = False

    def _enqueue(self, task: Task) -> None:
        """Task is schedulable: hand to the scheduler (or run a host flush)."""
        if type(task) is FlushTask:
            self._run_flush(task)
            return
        self._wake_clean_at = -1.0  # new work: the next wake must scan
        self.scheduler.push(task, self.ctx)
        self._wake_all()

    # ----------------------------------------------------------- host flush

    def _run_flush(self, task: Task) -> None:
        end = self.sim.now
        for access in task.accesses:
            end = max(end, self.transfer.ensure_host_valid(access.tile))
        task.device = None
        task.start_time = self.sim.now
        task.state = "running"
        self.sim.post(end, self._complete_flush, task, end)

    def _complete_flush(self, task: Task, end: float) -> None:
        task.end_time = end
        self._finish(task)

    # -------------------------------------------------------------- workers

    def _wake_all(self) -> None:
        # Fair drain: one launch per worker per round, so an early-woken
        # worker cannot swallow the whole ready pool into its lookahead
        # window before its peers get a turn.  The scan origin rotates across
        # calls — with a fixed origin, tasks released one at a time would
        # always land on the lowest-numbered eligible worker and starve the
        # tail of the worker array.  (The rotation advances on every call,
        # launches or not: the origin sequence is part of the recorded
        # schedules.)
        #
        # Incremental wake: instead of a pop attempt per worker per round,
        # each round consults the scheduler's owned-work mask plus its
        # stealable-work flag and only pops for devices that could actually
        # be served — owners of queued work always, everyone else only while
        # idle and something is stealable.  A worker whose pop returned None
        # (or whose window filled, or that failed the idle gate) is retired
        # from this wake via the ``dead`` mask — no event between here and
        # the next launch can change its answer: nothing is pushed during a
        # wake, pops only remove tasks, device loads only grow when their own
        # deque drains, and idleness only decays as windows fill.
        self._wake_origin = origin = (self._wake_origin + 1) % self._num_workers
        now = self.sim.now  # frozen for the whole wake
        if self._wake_clean_at == now:
            # A wake already ran at this instant and nothing it reads has
            # changed since: a wake only terminates when a full round makes no
            # progress (every live worker's pop returned None, or every
            # candidate is window-full / gate-rejected), so re-scanning the
            # same state must launch nothing.  Wake outcomes read only
            # scheduler queues (invalidated on push), worker windows and
            # stream backlogs (mutated only by launches, i.e. inside wakes,
            # and by completions, which invalidate), and the clock (compared
            # here) — transfer/directory state is never consulted by a pop or
            # gate, and on_complete only adjusts push-side estimates.  The
            # rotation advance above is the wake's only observable remnant
            # and is preserved.
            return
        scheduler = self.scheduler
        if scheduler.empty():
            # Nothing queued anywhere: every pop below would return None and
            # mutate nothing, so only the rotation advance (already done — the
            # origin sequence is part of the recorded schedules) is observable.
            # An empty scheduler stays empty until a push, so this outcome is
            # as stable as a full no-progress scan.
            self._wake_clean_at = now
            return
        ctx = self.ctx
        ready_mask = scheduler.ready_device_mask
        stealable = scheduler.has_stealable_work
        pop = scheduler.pop
        # Window-full workers are pre-retired via the maintained mask: visiting
        # one only ever set its dead-bit (windows only fill during a wake), so
        # skipping the visit is unobservable.
        dead = self._full_mask
        # Pre-resolved visit order for this origin: one membership test per
        # worker per round replaces the bit-extraction arithmetic the scan
        # used to pay per visit (most visits are gate rejections).
        order = self._rot_orders[origin]
        all_mask = self._all_workers_mask
        progress = True
        while progress:
            progress = False
            owned = ready_mask(ctx)
            # Re-read the maintained full mask each round instead of checking
            # inflight-vs-window per visit: a worker's window state at its
            # visit was last changed by its *own* launch in a previous round
            # (each worker launches at most once per round and _launch keeps
            # the mask exact), so the round-start mask gives the same answer.
            dead |= self._full_mask
            if stealable(ctx):
                avail = all_mask & ~dead
            else:
                avail = owned & ~dead
            if not avail:
                break
            for worker, bit in order:
                if not avail & bit:
                    continue
                if owned & bit:
                    task = pop(worker.device, ctx)
                elif (
                    worker.inflight < worker.steal_threshold
                    or worker.stream.busy_until <= now
                ):  # _device_idle, inlined on the hottest loop of the runtime
                    task = pop(worker.device, ctx, idle=True)
                else:
                    dead |= bit  # idleness only decays during a wake
                    continue
                if task is None:
                    dead |= bit
                    continue
                self._launch(task, worker)
                progress = True
        # The scan only falls out once no further launch is possible; record
        # that so back-to-back wakes at one instant (the tail of every
        # completion cascade) skip the rescan.
        self._wake_clean_at = now

    def _device_load(self, dev: int) -> float:
        """Compute backlog (seconds of queued kernels) of device ``dev``."""
        load = self.workers[dev].stream.busy_until - self.sim.now
        return load if load > 0.0 else 0.0

    def _device_loads(self) -> list[float]:
        """All device backlogs at once (bulk form of :meth:`_device_load`).

        Returns a buffer reused across calls — callers must consume it before
        the next call (the schedulers read it synchronously inside ``push``).
        """
        now = self.sim.now
        buf = self._loads_buf
        for i, worker in enumerate(self.workers):
            load = worker.stream.busy_until - now
            buf[i] = load if load > 0.0 else 0.0
        return buf

    def _device_idle(self, dev: int) -> bool:
        """A worker may steal while it is starving (little work in flight).

        Tasks in flight that are still waiting on transfers do not make the
        GPU busy — XKaapi worker threads keep stealing while DMAs are pending
        — but a worker with a few tasks enqueued ahead stops raiding, which
        bounds hoarding while preserving transfer/compute pipelining.
        """
        worker = self.workers[dev]
        return (
            worker.inflight < worker.steal_threshold
            or worker.stream.busy_until <= self.sim.now
        )

    def _launch(self, task: Task, worker: _Worker) -> None:
        dev = worker.device
        task.device = dev
        task.state = "running"
        worker.inflight += 1
        if worker.inflight >= worker.window:
            self._full_mask |= 1 << dev
        now = self.sim.now
        # One batched residency pass over the whole access list: the manager
        # hoists every per-access attribute lookup and handles the hit/pin
        # bookkeeping, miss staging and output allocation in declaration
        # order, op-for-op as the former per-access loop.  Left as a plain
        # attribute call (not hoisted at init) so instrumentation wrappers
        # installed on the manager see every launch.
        inputs_ready, transfer_cost, pinned = self.transfer.ensure_resident_batch(
            task.accesses, dev, now, now + self.pop_overhead, task.access_keys
        )

        # The kernel-time table the schedulers price placements from.
        row = self.ctx.kernel_times.get(task.kt_shape)
        if row is None:
            row = self.ctx.kernel_row(task)
        duration = row[dev]
        stream = worker.stream
        if self.overlap:
            start, end = stream.reserve(duration, earliest=inputs_ready)
        else:
            # Copies and kernel share one in-order lane (cuBLAS-XT-style):
            # the stream is also occupied for the transfer durations.
            start, end = stream.reserve(duration + transfer_cost, earliest=inputs_ready)
            start = end - duration
        task.start_time = start
        task.end_time = end
        if self.trace.enabled:
            self.trace.record(TraceCategory.KERNEL, dev, start, end, task.name)
        self.sim.post(end, self._complete_task, task, worker, pinned)

    def _complete_task(self, task: Task, worker: _Worker, pinned: list) -> None:
        """Kernel-completion event: writes registered, pins dropped, wake-up."""
        self._wake_clean_at = -1.0  # the window drains: wakes must rescan
        # The numeric bail is inlined (perf mode completes thousands of tasks
        # and never runs a kernel); _execute_numeric re-checks for the
        # numeric-mode path.
        if task.kernel is not None and task.output_tile.matrix.numeric:
            self._execute_numeric(task)
        transfer = self.transfer
        dev = worker.device
        now = self.sim.now
        for access in task.write_accesses:
            transfer.register_write(access.tile, dev, now)
        transfer.caches[dev].unpin_many(pinned)
        if not self.retain_inputs:
            self._drop_clean_inputs(task, dev)
        if transfer.sanitizer is not None:
            for access in task.accesses:
                transfer.sanitizer.check_tile(access.tile.key)
        if worker.inflight >= worker.window:
            self._full_mask &= ~(1 << worker.device)
        worker.inflight -= 1
        self._finish(task)

    def _drop_clean_inputs(self, task: Task, device: int) -> None:
        """Batched-workspace model: free read-only staging tiles after use."""
        directory = self.transfer.directory
        cache = self.transfer.caches[device]
        for access in task.accesses:
            if access.writes:
                continue
            key = access.tile.key
            tid = directory.lookup(key)
            if directory.state(tid, device) is not ReplicaState.SHARED:
                continue
            if key not in cache or cache.pin_count(key):
                continue
            try:
                directory.evict(tid, device)
            except CoherenceError:
                continue  # last replica somewhere transient; keep it
            cache.remove(key)
            self.transfer.datastore.drop_device_tile(key, device)

    def _execute_numeric(self, task: Task) -> None:
        # Cheap perf-mode bail: the output tile is one of the accesses, so if
        # its matrix carries no array the all() below is False anyway.
        if task.kernel is None or not task.output_tile.matrix.numeric:
            return
        if not all(a.tile.matrix.numeric for a in task.accesses):
            return  # perf mode
        dev = task.device
        assert dev is not None
        arrays = self.transfer.datastore.arrays_for(
            dev, [a.tile for a in task.accesses]
        )
        task.run_numeric(arrays)

    def _finish(self, task: Task) -> None:
        newly_ready = self.graph.complete(task)
        if self._stream_paused:
            # The pull chain paused with a full window and nothing was
            # admitted since, so this completion made room; _pull_next
            # re-checks the window anyway.
            self._stream_paused = False
            self._pull_next()
        for succ in newly_ready:
            if succ.submitted:
                self._enqueue(succ)
        self.scheduler.on_complete(task, self.ctx)
        self._wake_all()

    # ------------------------------------------------------------------ run

    def run_to_completion(self, max_events: int | None = None) -> float:
        """Drain the event heap; returns the makespan.

        Raises :class:`SchedulingError` if tasks remain unexecuted (a
        scheduling bug or an impossible mapping).
        """
        self.sim.run(max_events=max_events)
        graph = self.graph
        if not graph.all_done():
            if graph.retain_tasks:
                stuck = [t for t in graph.tasks if t.state != "done"]
                raise SchedulingError(
                    f"{len(stuck)} tasks never completed, e.g. {stuck[0]!r}"
                )
            raise SchedulingError(
                f"{graph.num_tasks - graph.num_done} of {graph.num_tasks} "
                "tasks never completed (reclaiming graph keeps no task list; "
                "rerun with retain_tasks=True to identify them)"
            )
        return self.sim.now

    @property
    def completed_tasks(self) -> int:
        return self.graph.num_done
