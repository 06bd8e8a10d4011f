"""XKaapi's locality-aware work stealing.

The paper's §III-A: "the internal scheduling algorithm uses an owner-computes
rule heuristic to map tasks on resources" and §IV-D: "the XKBlas scheduler
relies on the XKaapi work stealing, with locality heuristic".

Placement of a schedulable task:

1. the device holding the MODIFIED replica of its written tile binds the task
   (owner computes — the task continues a chain in place), unless that owner
   is far ahead of a starving peer (load-aware release);
2. anything else goes to the spawning (host) thread's shared queue.

Each device owns a deque: the owner pops LIFO (depth-first reuse of warm
data); an idle device steals FIFO — first from the shared queue, then from the
most-loaded peer deque.  Steals ignore data locality: that blindness is
precisely the mechanism behind the communication/load imbalance the paper
observes on SYR2K (§IV-E), which our Fig. 7 reproduction exhibits.
"""

from __future__ import annotations

from collections import deque

from repro.runtime.scheduler.base import Scheduler, SchedulerContext
from repro.runtime.task import Task
from repro.topology.link import HOST


class LocalityWorkStealing(Scheduler):
    name = "xkaapi-locality-ws"

    def __init__(self, num_devices: int) -> None:
        super().__init__(num_devices)
        self._deques: list[deque[Task]] = [deque() for _ in range(num_devices)]
        #: fresh tasks with no placed data sit in the spawning (host) thread's
        #: queue; idle GPU workers steal them FIFO, locality-blind — the
        #: XKaapi distribution mechanism, and the source of the SYR2K
        #: imbalance the paper analyses (§IV-E).
        self._host_queue: deque[Task] = deque()
        #: bit ``d`` set iff ``_deques[d]`` is non-empty (kept by push/pop).
        self._deque_mask = 0
        self.steals = 0

    # -------------------------------------------------------------- placing

    def _owner_device(self, task: Task, ctx: SchedulerContext) -> int | None:
        """Owner-computes: the device holding the *dirty* written tile.

        Only a MODIFIED replica binds (the task continues a chain in place);
        a merely SHARED copy does not — binding on read replicas was observed
        to serialize wavefront-shaped graphs (TRMM) onto the few devices that
        happened to read a column first.  Unbound tasks go to the shared
        queue, where idle workers apply the data-aware steal.
        """
        if task.owner_hint is not None:
            return task.owner_hint
        directory = ctx.directory
        holder = directory.modified_location(directory.lookup(task.output_tile.key))
        if holder is not None and holder != HOST:
            return holder
        return None

    def push(self, task: Task, ctx: SchedulerContext) -> None:
        # Owner computes on the *written* tile only.  Reader locality is
        # deliberately NOT used for placement: herding tasks toward whichever
        # GPU fetched input data first serializes the startup; communication
        # locality is the transfer heuristics' job (§III-B/C), not the
        # scheduler's.
        dev = self._owner_device(task, ctx)
        if dev is None:
            self._host_queue.append(task)
            return
        dev %= self.num_devices
        # Load-aware locality (the [11] heuristics combine data affinity with
        # queue load): when the owner is far ahead of a starving peer, release
        # the task to the shared queue so an idle worker can steal it — this
        # is what keeps wavefront-shaped graphs (TRMM) from strangling on a
        # few owner devices.
        est = ctx.kernel_row(task)[dev]
        owner_load = ctx.device_load(dev)
        # Backlogs are clamped non-negative, so ``owner_load - min_load``
        # never exceeds ``owner_load`` (IEEE: subtracting a non-negative
        # float cannot round above the minuend).  When the owner itself is
        # within the release margin the condition below is provably false —
        # skip the all-devices backlog scan entirely on that common path.
        # Per-event cost audit (large-tier profile, 266k tasks): this branch
        # is O(num_devices) behind the 4x-estimate guard — a platform-sized
        # constant (8 on the DGX-1 model), not a function of live tasks or
        # resident tiles, so it does not contribute to the large-N scaling
        # cliff.  Replacing min() with an incrementally tracked minimum would
        # risk float-comparison drift in release decisions for no asymptotic
        # gain.
        if owner_load > 4.0 * est:
            min_load = min(ctx.device_loads())  # the owner's load included
            if owner_load - min_load > 4.0 * est and min_load < est:
                self._host_queue.append(task)
                return
        self._deques[dev].append(task)
        self._deque_mask |= 1 << dev

    # -------------------------------------------------------------- serving

    def pop(
        self, device: int, ctx: SchedulerContext, idle: bool | None = None
    ) -> Task | None:
        own = self._deques[device]
        if own:
            task = own.pop()  # LIFO on own deque
            if not own:
                self._deque_mask &= ~(1 << device)
            return task
        if idle is None:
            idle = ctx.device_idle(device)
        if not idle:
            return None  # busy workers do not steal
        if self._host_queue:
            self.steals += 1
            return self._steal_from_host_queue(device, ctx)
        victim = self._choose_victim(device, ctx)
        if victim is None:
            return None
        self.steals += 1
        raided = self._deques[victim]
        task = raided.popleft()  # FIFO steal
        if not raided:
            self._deque_mask &= ~(1 << victim)
        return task

    def _steal_from_host_queue(self, device: int, ctx: SchedulerContext) -> Task:
        """FIFO steal from the spawning thread's queue.

        A data-aware scan (preferring tasks with inputs already local, as in
        [11]) was evaluated here: it raises GEMM throughput slightly but
        clusters same-panel chains per device, *increasing* host-PCIe traffic
        and destroying the paper's Fig. 6 signature (XKBlas must have the
        lowest HtoD time) — so the replica-level heuristics, not the steal,
        carry the locality, exactly as the paper argues.
        """
        return self._host_queue.popleft()

    def _choose_victim(self, thief: int, ctx: SchedulerContext) -> int | None:
        """Pick a deque to raid.

        A victim whose own worker is idle and holds a single queued task is
        not raided — it will pop that task immediately itself, and stealing
        it would only drag the written tile to another GPU (chain
        ping-pong).
        """
        best, best_len = None, 0
        m = self._deque_mask & ~(1 << thief)
        while m:
            low = m & -m
            m ^= low
            dev = low.bit_length() - 1
            size = len(self._deques[dev])
            if size == 1 and ctx.device_load(dev) <= 0.0:
                continue  # the idle owner is about to take it anyway
            if size > best_len:
                best, best_len = dev, size
        return best

    def pending(self) -> int:
        return sum(len(d) for d in self._deques) + len(self._host_queue)

    def empty(self) -> bool:
        return not self._host_queue and not self._deque_mask

    def ready_device_mask(self, ctx: SchedulerContext) -> int:
        """Owners of non-empty deques (served whether idle or not)."""
        return self._deque_mask

    def has_stealable_work(self, ctx: SchedulerContext) -> bool:
        """Shared queue non-empty, or a deque is raidable per the
        :meth:`_choose_victim` feasibility rule — then any idle peer can get
        work beyond its own deque."""
        if self._host_queue:
            return True
        m = self._deque_mask
        while m:
            low = m & -m
            m ^= low
            dev = low.bit_length() - 1
            if len(self._deques[dev]) > 1 or ctx.device_load(dev) > 0.0:
                return True
        return False
