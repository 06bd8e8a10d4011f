"""Exclusive host time per runtime layer, measured from outside the program.

The runtime carries no timing code.  :class:`LayerTracer` wraps the entry
points listed in :data:`HOOKS` on their classes for one ``with`` block and
restores the original attributes on exit, also when the block raises.
Every wrapped call is a span; a span's *self time* is its duration minus
the time of the spans it encloses, so the self times of all layers add up
to the time spent inside wrapped calls, and a run's wall time minus that
sum is what no layer claims (``other``: the caller's own loop code and the
program's unwrapped glue).

Layers, named after the modules that implement them: ``build`` (the tiled
task builders, timed around each pull from a task stream passed through
:meth:`LayerTracer.tasks`), ``dataflow`` (dependency tracking),
``scheduler``, ``executor`` (submission, the fused pump, wake scans,
launches and completions), ``transfer`` (residency, source selection,
write registration and transfer completions), ``eviction`` (making room in
a full device cache, victim selection included), ``channel`` (link
reservation on the interconnect) and ``engine`` (the event loop).

Enter the tracer before the runtime under measurement is constructed, so
bound methods the runtime caches at construction are wrapped too.  The
wrappers only time calls: a traced run's virtual-time outcome equals an
untraced one's.  The repository benchmark (``e2ebench/layers.py``) carries
the same hook table; ``tests/test_bench_layers.py`` keeps the two equal.
"""

from __future__ import annotations

import functools
import inspect
import time
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
#: and friends), whose cost stays with their caller.  Every hook must be a
#: plain function on the class or one of its bases.
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


class LayerTracer:
    """Exclusive (self) host time per layer."""

    def __init__(self) -> None:
        self.self_ns = dict.fromkeys(LAYERS, 0)
        #: open spans: [layer, child ns, start ns]
        self._stack: list[list] = []
        #: (class, name, the class's own attribute or None) per installed hook
        self._saved: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------- spans

    def _enter(self, layer: str) -> list:
        frame = [layer, 0, time.perf_counter_ns()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        layer, child, start = frame
        dt = time.perf_counter_ns() - start
        self._stack.pop()
        self.self_ns[layer] += dt - child
        if self._stack:
            self._stack[-1][1] += dt

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

    def __enter__(self) -> "LayerTracer":
        """Wrap every hook on its class (inherited methods included).

        Every hook is checked before any is wrapped, so a hook that is not a
        plain function raises ``TypeError`` with nothing installed.
        """
        hooks = [(layer, cls, name, inspect.getattr_static(cls, name))
                 for layer, cls, names in HOOKS for name in names]
        for _, cls, name, fn in hooks:
            if not inspect.isfunction(fn):
                raise TypeError(f"{cls.__name__}.{name} is not a plain method")
        for layer, cls, name, fn in hooks:
            self._saved.append((cls, name, cls.__dict__.get(name)))
            setattr(cls, name, self.wrap(layer, fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            if original is None:
                delattr(cls, name)
            else:
                setattr(cls, name, original)

    # ------------------------------------------------------------ output

    def layers_ms(self, wall_ns: int) -> dict[str, float]:
        """Self ms per layer plus ``other``, the part of ``wall_ns`` (the
        traced run's wall time) that no layer claims; the values sum to
        ``wall_ns`` in ms."""
        out = {layer: ns / 1e6 for layer, ns in self.self_ns.items()}
        out["other"] = (wall_ns - sum(self.self_ns.values())) / 1e6
        return out
