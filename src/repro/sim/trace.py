"""nvprof-like execution traces.

The paper analyses nvprof traces in Figures 6, 7 and 9: cumulative time per
operation category (``CUDA memcpy DtoH / HtoD / PtoP`` and ``GPU Kernel``),
per-GPU breakdowns and Gantt charts.  :class:`TraceRecorder` captures the same
information from the simulator: every timed operation is recorded as an
:class:`Interval` with a category, a device and a label.

The summaries implemented here (:meth:`TraceRecorder.cumulative_by_category`,
:meth:`TraceRecorder.per_device_breakdown`, :meth:`TraceRecorder.idle_gaps`)
and the per-device selection of :meth:`TraceRecorder.filter` (the Gantt
rows) are exactly the reductions needed to regenerate the paper's trace
figures.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import defaultdict
from typing import Callable, Iterator

from repro.errors import SimulationError


class TraceCategory(enum.Enum):
    """Operation categories matching the paper's nvprof legend."""

    MEMCPY_HTOD = "CUDA memcpy HtoD"
    MEMCPY_DTOH = "CUDA memcpy DtoH"
    MEMCPY_PTOP = "CUDA memcpy PtoP"
    MEMCPY_DTOD = "CUDA memcpy DtoD"  # local, on-device copies
    KERNEL = "GPU Kernel"
    HOST = "Host"  # host-side work (layout conversions, sync waits)

    @property
    def is_transfer(self) -> bool:
        return self is not TraceCategory.KERNEL and self is not TraceCategory.HOST


@dataclasses.dataclass(frozen=True, slots=True)
class Interval:
    """One traced operation: ``[start, end)`` on ``device``."""

    category: TraceCategory
    device: int  # -1 for host-side intervals
    start: float
    end: float
    label: str = ""
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class TraceRecorder:
    """Accumulates :class:`Interval` records and computes paper-style summaries.

    A disabled recorder (``enabled=False``) drops every record and raises
    :class:`~repro.errors.SimulationError` from every read but ``len()``.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: mixed storage: raw ``(category, device, start, end, label, nbytes)``
        #: tuples appended by :meth:`record`, converted to :class:`Interval`
        #: objects in place — and label callables resolved — the first time an
        #: accessor needs them.  Entries before ``_cooked`` are materialized.
        self._intervals: list = []
        self._cooked = 0

    # ---------------------------------------------------------------- record

    def record(
        self,
        category: TraceCategory,
        device: int,
        start: float,
        end: float,
        label: str | Callable[[], str] = "",
        nbytes: int = 0,
    ) -> None:
        """Append one interval (no-op when tracing is disabled).

        ``label`` may be a zero-argument callable producing the label string;
        it is only invoked when the trace is *read* (summaries, accessors),
        never on the recording path.  Interval materialization is deferred the
        same way: recording is a bounds check plus a tuple append, so a traced
        run pays for the analysis only when it is read.
        """
        if not self.enabled:
            return
        if end < start:
            raise ValueError(f"interval ends before it starts: [{start}, {end})")
        self._intervals.append((category, device, start, end, label, nbytes))

    def _materialized(self) -> list[Interval]:
        """Convert any still-raw entries; returns the interval list.

        Every read goes through here, so a disabled recorder refuses them
        all: its empty list would read as a run that did nothing."""
        if not self.enabled:
            raise SimulationError(
                "the run recorded no trace: a library session records one only "
                "with keep_runtime=True (a bare Runtime with RuntimeOptions.trace)"
            )
        ivs = self._intervals
        cooked = self._cooked
        total = len(ivs)
        if cooked < total:
            for idx in range(cooked, total):
                category, device, start, end, label, nbytes = ivs[idx]
                if callable(label):
                    label = label()
                ivs[idx] = Interval(category, device, start, end, label, nbytes)
            self._cooked = total
        return ivs

    # ------------------------------------------------------------- accessors

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._materialized())

    def filter(
        self,
        category: TraceCategory | None = None,
        device: int | None = None,
    ) -> list[Interval]:
        """Select intervals by category and/or device."""
        out = []
        for iv in self._materialized():
            if category is not None and iv.category is not category:
                continue
            if device is not None and iv.device != device:
                continue
            out.append(iv)
        return out

    def makespan(self) -> float:
        """End time of the last interval (0 for an empty enabled trace)."""
        return max((iv.end for iv in self._materialized()), default=0.0)

    # ------------------------------------------------------------- summaries

    def cumulative_by_category(self) -> dict[TraceCategory, float]:
        """Total time per category, summed over all devices (paper Fig. 6 left).

        Note these are *cumulative* device-seconds, exactly like the paper's
        stacked bars: the total can exceed the makespan because devices and
        streams overlap.
        """
        totals: dict[TraceCategory, float] = defaultdict(float)
        for iv in self._materialized():
            totals[iv.category] += iv.duration
        return dict(totals)

    def normalized_by_category(self) -> dict[TraceCategory, float]:
        """Share of cumulative time per category (paper Fig. 6 right)."""
        totals = self.cumulative_by_category()
        grand = sum(totals.values())
        if grand == 0:
            return {}
        return {cat: t / grand for cat, t in totals.items()}

    def transfer_share(self) -> float:
        """Fraction of cumulative time spent in data transfers.

        The paper reports ~25.4% for XKBLAS GEMM at N=32768 and ~41.2% for
        Chameleon Tile.
        """
        normalized = self.normalized_by_category()
        return sum(v for cat, v in normalized.items() if cat.is_transfer)

    def per_device_breakdown(self) -> dict[int, dict[TraceCategory, float]]:
        """Per-GPU cumulative time per category (paper Fig. 7)."""
        out: dict[int, dict[TraceCategory, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for iv in self._materialized():
            out[iv.device][iv.category] += iv.duration
        return {dev: dict(cats) for dev, cats in out.items()}

    def device_busy_time(self, device: int) -> float:
        """Union length of all intervals on ``device`` (true occupancy)."""
        ivs = sorted(
            ((iv.start, iv.end) for iv in self._materialized() if iv.device == device)
        )
        busy = 0.0
        cur_start: float | None = None
        cur_end = 0.0
        for s, e in ivs:
            if cur_start is None:
                cur_start, cur_end = s, e
            elif s <= cur_end:
                cur_end = max(cur_end, e)
            else:
                busy += cur_end - cur_start
                cur_start, cur_end = s, e
        if cur_start is not None:
            busy += cur_end - cur_start
        return busy

    def idle_gaps(self, device: int, min_gap: float = 0.0) -> list[tuple[float, float]]:
        """Gaps between consecutive operations on ``device``.

        Used to detect the inter-call synchronization gaps the paper observes
        in Chameleon's composition Gantt chart (Fig. 9).
        """
        ivs = sorted(
            ((iv.start, iv.end) for iv in self._materialized() if iv.device == device)
        )
        gaps: list[tuple[float, float]] = []
        cur_end: float | None = None
        for s, e in ivs:
            if cur_end is not None and s - cur_end > min_gap:
                gaps.append((cur_end, s))
            cur_end = e if cur_end is None else max(cur_end, e)
        return gaps
