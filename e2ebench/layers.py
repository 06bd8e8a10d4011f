"""Per-layer host-time trace of a simulated run, taken from outside the program.

The program carries no timing code on the path being measured, so the
tracer installs its own wrappers — from this file, on the classes of each
layer — for the duration of one traced op, and removes them afterwards.
Every wrapped call is a span; a span's *self time* is its duration minus
the time of the spans it encloses, so self times of all layers add up to
the time spent inside wrapped calls, and the op's wall time minus that sum
is what no layer claims (``other``: the benchmark's own loop code and the
program's unwrapped glue).

Layers, named after the modules that implement them:

* ``build`` — the tiled task builders (``repro.blas.tiled``,
  ``repro.lapack``), timed around each pull from the task generator;
* ``dataflow`` — dependency tracking (``runtime/dataflow.py``);
* ``scheduler`` — the runtime's scheduler (``runtime/scheduler``);
* ``executor`` — submission, the fused pump, wake scans, launches and
  completions (``runtime/executor.py``);
* ``transfer`` — residency, source selection, write registration and
  transfer completions (``runtime/transfer.py``);
* ``eviction`` — making room in a full device cache, victim selection
  included (``TransferManager._make_room`` over ``memory/cache.py``);
* ``channel`` — link reservation on the interconnect (``runtime/fabric.py``,
  ``sim/channel.py``);
* ``engine`` — the event loop and its heap (``sim/engine.py``).

Wrappers are installed before the op's runtime is constructed, so bound
methods the runtime caches at construction are wrapped too.  They only
time calls; the virtual-time outcome is unchanged, which the benchmark
checks on every traced op.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path
from typing import Iterable, Iterator

from repro.runtime.dataflow import TaskGraph
from repro.runtime.executor import Executor
from repro.runtime.fabric import Fabric
from repro.runtime.scheduler import DmdaScheduler, LocalityWorkStealing
from repro.runtime.transfer import TransferManager
from repro.sim.channel import Channel
from repro.sim.engine import Simulator

#: (layer, class, method names) of the wrapped entry points: the calls by
#: which control enters a layer from another one.  Calls a layer makes to
#: itself are left unwrapped — they would add overhead without moving any
#: time between layers — and so are O(1) predicates (``Scheduler.empty``
#: and friends), whose cost stays with their caller.
HOOKS: tuple[tuple[str, type, tuple[str, ...]], ...] = (
    ("dataflow", TaskGraph, ("add", "complete", "critical_path_priorities")),
    ("scheduler", LocalityWorkStealing, ("push", "pop", "on_complete")),
    ("scheduler", DmdaScheduler, ("push", "pop", "on_complete")),
    ("executor", Executor,
     ("submit", "submit_stream", "run_to_completion", "_pump",
      "_complete_task", "_complete_flush")),
    ("transfer", TransferManager,
     ("ensure_resident_batch", "ensure_resident", "ensure_host_valid",
      "register_write", "_complete_d2d", "_complete_d2h")),
    ("eviction", TransferManager, ("_make_room",)),
    ("channel", Fabric, ("reserve_h2d", "reserve_d2h", "reserve_p2p", "reserve")),
    ("channel", Channel, ("reserve_batch",)),
    ("engine", Simulator, ("run", "post", "post_reserved")),
)

LAYERS = ("build", "dataflow", "scheduler", "executor", "transfer",
          "eviction", "channel", "engine")

#: raw spans kept for the trace file; later spans are counted, not stored.
SPAN_CAP = 20_000


class LayerTracer:
    """Exclusive (self) host time and call counts per layer, plus raw spans."""

    def __init__(self) -> None:
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        #: (layer, start ns, end ns, parent index or -1, op index)
        self.spans: list = []
        self.dropped = 0
        self.op = 0
        #: open spans: [layer, child ns, span index, parent index, start ns]
        self._stack: list[list] = []
        self._saved: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------- spans

    def _enter(self, layer: str) -> list:
        spans = self.spans
        parent = self._stack[-1][2] if self._stack else -1
        index = len(spans)
        if index < SPAN_CAP:
            spans.append(None)  # filled in when the span ends
        else:
            index = -1
        frame = [layer, 0, index, parent, time.perf_counter_ns()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        layer, child, index, parent, start = frame
        self._stack.pop()
        dt = end - start
        self.self_ns[layer] += dt - child
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][1] += dt
        if index >= 0:
            self.spans[index] = (layer, start, end, parent, self.op)
        else:
            self.dropped += 1

    def wrap(self, layer: str, fn):
        """``fn`` timed as a span of ``layer``."""
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        return timed

    def tasks(self, tasks: Iterable) -> Iterator:
        """Pass ``tasks`` through, timing each pull as a ``build`` span."""
        it = iter(tasks)
        while True:
            frame = self._enter("build")
            try:
                task = next(it, None)
            finally:
                self._exit(frame)
            if task is None:
                return
            yield task

    # -------------------------------------------------------- installing

    def install(self) -> None:
        """Wrap every hook on its class (inherited methods included)."""
        for layer, cls, names in HOOKS:
            for name in names:
                static = inspect.getattr_static(cls, name)
                if not inspect.isfunction(static):
                    raise TypeError(f"{cls.__name__}.{name} is not a plain method")
                self._saved.append((cls, name, cls.__dict__.get(name)))
                setattr(cls, name, self.wrap(layer, static))

    def uninstall(self) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            if original is None:
                delattr(cls, name)
            else:
                setattr(cls, name, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------ output

    def write_chrome_trace(self, path: Path) -> None:
        """Spans as Chrome-trace complete events (one thread per op)."""
        events = [
            {"name": layer, "ph": "X", "pid": 0, "tid": op,
             "ts": start / 1e3, "dur": (end - start) / 1e3,
             "args": {"parent": parent}}
            for layer, start, end, parent, op in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "otherData": {"dropped": self.dropped}}))
