"""Submission-pump dispatch contract tests.

Every submission instant runs through one path, the executor's submission
pump (``Executor._pump``), which folds consecutive pending submissions into
one engine event whenever the engine would have dispatched them next anyway.
``Runtime.sync(max_events=...)`` disables folding (``inline_horizon = -inf``),
so the same pump then dispatches once per submission: the *unfolded* run is
the reference the folded one is compared against ("fused"/"unfused" in the
test names).  The contract, pinned here:

* **bit-identity** — every virtual-time observable (makespan, per-task
  schedule, transfer stats, completed-task count) of a folded run equals the
  unfolded run, for every scheduler, eager and streamed submission, retained
  and reclaiming graphs;
* **fewer events** — folding must fire strictly fewer engine events on any
  non-trivial graph (that is its entire point);
* **tracing is invisible** — an enabled TraceRecorder observes the pump
  without changing it: traced and untraced runs agree on everything,
  ``events_fired`` included, and the recorded interval sequences reproduce
  ``tests/data/golden_traces.json``;
* **same-instant robustness** — random graphs engineered to complete many
  tasks at identical instants (the case the redundant-wake skip collapses)
  stay bit-identical under folding (hypothesis-driven).
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from tests.test_determinism_golden import eviction_runtime, hint_block_cyclic_owners

from repro.blas.params import Uplo
from repro.blas.tiled import build_gemm
from repro.lapack.potrf import build_potrf
from repro.lapack.solve import build_potrs
from repro.libraries.registry import LIBRARIES
from repro.memory.matrix import Matrix
from repro.runtime.api import Runtime, RuntimeOptions
from repro.runtime.task import Task
from repro.topology.dgx1 import make_dgx1
from tests.access_lists import make_access_list

SCHEDULERS = ("xkaapi-locality-ws", "starpu-dmdas", "owner-computes")

TRACE_GOLDEN_PATH = Path(__file__).parent / "data" / "golden_traces.json"

#: event budget large enough for every graph here: it only switches folding off.
UNFOLDED = 10**9


def _observe(rt: Runtime, makespan: float, tasks: list[Task]) -> dict:
    return {
        "makespan_hex": makespan.hex(),
        "events": rt.sim.events_fired,
        "transfers": rt.transfer.stats(),
        "tasks": rt.executor.completed_tasks,
        "schedule": [
            (t.device, t.start_time.hex(), t.end_time.hex()) for t in tasks
        ],
    }


def _gemm_runtime(scheduler: str, *, streaming: bool = False,
                  retain: bool = True, trace: bool = False, n: int = 4096,
                  nb: int = 512) -> tuple[Runtime, list[Task]]:
    """One GEMM point submitted, not yet run (the golden
    ``scheduler_points`` recipe).  The task list is kept for the per-task
    schedule; holding it does not change what the runtime does."""
    opts = RuntimeOptions(scheduler=scheduler, retain_tasks=retain, trace=trace)
    rt = Runtime(make_dgx1(8), opts)
    a, b, c = (Matrix.meta(n, n) for _ in range(3))
    pa, pb, pc = rt.partition(a, nb), rt.partition(b, nb), rt.partition(c, nb)
    tasks = list(build_gemm(1.0, pa, pb, 0.5, pc))
    if scheduler == "owner-computes":
        tasks = list(hint_block_cyclic_owners(tasks))
    if streaming:
        rt.submit_stream(iter(tasks))
    else:
        for task in tasks:
            rt.submit(task)
    rt.memory_coherent_async(c, nb)
    if rt.executor.graph.retain_tasks:
        rt.executor.graph.critical_path_priorities()
    return rt, tasks


def _traced_posv_runtime() -> Runtime:
    """POTRF then POTRS on one traced Chameleon-configured runtime, both
    operands flushed back to the host (the golden ``posv_points`` recipe)."""
    platform = make_dgx1(8)
    opts = LIBRARIES["chameleon-tile"](platform).runtime_options()
    opts.trace = True
    rt = Runtime(platform, opts)
    n, nb = 3968, 512
    a, b = Matrix.meta(n, n, name="A"), Matrix.meta(n, n, name="B")
    pa, pb = rt.partition(a, nb), rt.partition(b, nb)
    for task in build_potrf(Uplo.LOWER, pa):
        rt.submit(task)
    for task in build_potrs(Uplo.LOWER, pa, pb):
        rt.submit(task)
    rt.memory_coherent_async(a, nb)
    rt.memory_coherent_async(b, nb)
    rt.executor.graph.critical_path_priorities()
    return rt


def _run_gemm(scheduler: str, *, folded: bool, **kw) -> dict:
    rt, tasks = _gemm_runtime(scheduler, **kw)
    makespan = rt.sync() if folded else rt.sync(max_events=UNFOLDED)
    return _observe(rt, makespan, tasks)


# ------------------------------------------------------------- bit-identity


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("streaming", (False, True), ids=("eager", "streamed"))
def test_fused_equals_unfused_retained(scheduler, streaming):
    folded = _run_gemm(scheduler, folded=True, streaming=streaming)
    unfolded = _run_gemm(scheduler, folded=False, streaming=streaming)
    for key in ("makespan_hex", "transfers", "tasks", "schedule"):
        assert folded[key] == unfolded[key], key
    # The entire point of folding: strictly fewer engine events.
    assert folded["events"] < unfolded["events"]


@pytest.mark.parametrize(
    "scheduler", [s for s in SCHEDULERS if s != "starpu-dmdas"]
)
def test_fused_equals_unfused_reclaiming(scheduler):
    # DMDAS needs the retained DAG for critical-path priorities.
    folded = _run_gemm(scheduler, folded=True, streaming=True, retain=False)
    unfolded = _run_gemm(scheduler, folded=False, streaming=True, retain=False)
    for key in ("makespan_hex", "transfers", "tasks", "schedule"):
        assert folded[key] == unfolded[key], key
    assert folded["events"] < unfolded["events"]


# ------------------------------------------------------------------ tracing


def test_traced_run_matches_untraced_fused_run():
    """Tracing observes the pump without changing it — event count included."""
    runs = {}
    for trace in (True, False):
        rt, tasks = _gemm_runtime("xkaapi-locality-ws", trace=trace,
                                  n=2048, nb=512)
        runs[trace] = _observe(rt, rt.sync(), tasks)
    assert runs[True] == runs[False]


_MATRIX_ID = re.compile(r"T\((\d+):")


def _trace_digest(rt: Runtime) -> dict:
    """Count and SHA-256 of the recorded interval sequence, in record order.

    Matrix ids in tile labels are process-global counters, so they are
    renumbered by first appearance: the digest depends on the run alone,
    not on how many matrices the process built before it.
    """
    ids: dict[str, str] = {}

    def renumber(m: re.Match) -> str:
        return f"T({ids.setdefault(m.group(1), str(len(ids)))}:"

    h = hashlib.sha256()
    count = 0
    for iv in rt.trace:
        label = _MATRIX_ID.sub(renumber, iv.label)
        h.update(
            f"{iv.category.name} {iv.device} {iv.start.hex()} {iv.end.hex()} "
            f"{iv.nbytes} {label}\n".encode()
        )
        count += 1
    return {"intervals": count, "sha256": h.hexdigest()}


def _traced_case(case: str) -> Runtime:
    """Build the traced runtime of one ``golden_traces.json`` case."""
    if case == "posv-n3968-nb512-chameleon-tile-lower":
        return _traced_posv_runtime()
    if case.startswith("trsm-"):
        policy, mode = case.removeprefix("trsm-n8192-nb512-cache40-").rsplit("-", 1)
        return eviction_runtime(policy, mode, trace=True)
    scheduler, mode = case.removeprefix("gemm-n4096-nb512-").rsplit("-", 1)
    return _gemm_runtime(scheduler, streaming=mode == "streamed", trace=True)[0]


def _trace_golden() -> dict:
    return json.loads(TRACE_GOLDEN_PATH.read_text(encoding="utf-8"))["cases"]


@pytest.mark.parametrize("case", sorted(_trace_golden()))
def test_trace_matches_recorded_golden(case):
    rt = _traced_case(case)
    rt.sync()
    assert _trace_digest(rt) == _trace_golden()[case], (
        f"{case}: the recorded interval sequence drifted; tracing must "
        "observe the same run the untraced pump executes"
    )


# --------------------------------------- same-instant completion batches


PLATFORM4 = make_dgx1(4)
TILES = 6


@st.composite
def batched_specs(draw):
    """Random graphs biased toward simultaneous completions.

    All tasks share one flop count (equal kernel durations), and reads are
    drawn from a small tile pool, so independent tasks started at the same
    wake finish at exactly the same instant — the completion cascades the
    redundant-wake skip collapses.
    """
    n = draw(st.integers(2, 18))
    scale = draw(st.integers(1, 4))
    specs = []
    for _ in range(n):
        w = draw(st.integers(0, TILES - 1))
        reads = draw(
            st.lists(st.integers(0, TILES - 1), max_size=2, unique=True)
        )
        specs.append(([r for r in reads if r != w], w, scale))
    return specs


def _run_specs(specs, scheduler, folded):
    rt = Runtime(
        PLATFORM4,
        RuntimeOptions(scheduler=scheduler, trace=False),
    )
    mat = Matrix.meta(TILES * 16, 16)
    part = rt.partition(mat, 16)
    tiles = part.col(0)
    tasks = []
    for reads, w, scale in specs:
        tasks.append(
            rt.submit(
                Task(
                    name="k",
                    accesses=make_access_list(
                        reads=[tiles[r] for r in reads],
                        readwrites=[tiles[w]],
                        writes=[],
                    ),
                    flops=1e8 * scale,
                    dim=256,
                )
            )
        )
    rt.memory_coherent_async(mat, 16)
    # An event budget switches folding off, so only the unfolded side has one.
    makespan = rt.sync() if folded else rt.sync(max_events=200_000)
    schedule = sorted(
        (t.device, t.start_time.hex(), t.end_time.hex()) for t in tasks
    )
    return makespan.hex(), schedule, rt.transfer.stats(), rt.sim.events_fired


@settings(max_examples=30, deadline=None)
@given(batched_specs(), st.just("xkaapi-locality-ws"))
def test_property_same_instant_batches_fused_bit_identical(specs, scheduler):
    folded = _run_specs(specs, scheduler, folded=True)
    unfolded = _run_specs(specs, scheduler, folded=False)
    # makespan, per-task placement/schedule and transfers all bit-identical…
    assert folded[:3] == unfolded[:3]
    # …with no more events than the unfolded dispatch fired.
    assert folded[3] <= unfolded[3]
