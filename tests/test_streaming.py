"""Streaming submission + retired-task reclamation tests.

Three guarantees pin the streaming tentpole down:

* **bit-identity below the admission window** — ``submit_stream`` over a
  generator produces the same makespan (compared as float hex), transfer
  stats and event counts as eager list submission, for every scheduling
  policy, and matches the recorded goldens;
* **reclamation really reclaims** — with ``retain_tasks=False`` a completed
  task is dropped by every runtime structure (observed with a weakref), and
  the graph keeps working counters instead of a task list;
* **the admission window throttles without wedging** — a stream larger than
  the window pauses and resumes on completions, finishing every task.
"""

import dataclasses
import gc
import json
import weakref
from pathlib import Path

import pytest
from tests.test_determinism_golden import hint_block_cyclic_owners

from repro.blas.tiled import build_gemm
from repro.errors import TaskGraphError
from repro.libraries import make_library
from repro.memory.matrix import Matrix
from repro.runtime.api import Runtime, RuntimeOptions
from repro.runtime.task import FlushTask
from repro.topology.dgx1 import make_dgx1

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_makespans.json"

SCHEDULERS = ("xkaapi-locality-ws", "starpu-dmdas", "owner-computes")


def _run_gemm(scheduler: str, *, streaming: bool, retain: bool = True,
              n: int = 4096, nb: int = 512, stream_window: int | None = 8192,
              keep_runtime: bool = False):
    """One GEMM point, mirroring the golden ``scheduler_points`` recipe."""
    opts = RuntimeOptions(
        scheduler=scheduler, retain_tasks=retain, stream_window=stream_window
    )
    rt = Runtime(make_dgx1(8), opts)
    a, b, c = (Matrix.meta(n, n) for _ in range(3))
    pa, pb, pc = rt.partition(a, nb), rt.partition(b, nb), rt.partition(c, nb)
    tasks = build_gemm(1.0, pa, pb, 0.5, pc)
    if scheduler == "owner-computes":
        tasks = hint_block_cyclic_owners(tasks)
    if streaming:
        rt.submit_stream(tasks)
    else:
        for task in tasks:
            rt.submit(task)
    rt.memory_coherent_async(c, nb)
    if rt.executor.graph.retain_tasks:
        rt.executor.graph.critical_path_priorities()
    makespan = rt.sync()
    observed = {
        "makespan": makespan,
        "makespan_hex": makespan.hex(),
        "events_fired": rt.sim.events_fired,
        "transfers": rt.transfer.stats(),
        "tasks": rt.executor.completed_tasks,
    }
    return (observed, rt) if keep_runtime else observed


# ------------------------------------------------------------- bit-identity


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_stream_equals_list_submission(scheduler):
    eager = _run_gemm(scheduler, streaming=False)
    streamed = _run_gemm(scheduler, streaming=True)
    assert streamed == eager


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_stream_with_reclamation_equals_list_submission(scheduler):
    if scheduler == "starpu-dmdas":
        pytest.skip("DMDAS needs the retained DAG for critical-path priorities")
    eager = _run_gemm(scheduler, streaming=False)
    reclaiming = _run_gemm(scheduler, streaming=True, retain=False)
    assert reclaiming == eager


def test_stream_matches_recorded_goldens():
    """Streamed runs must reproduce the *recorded* pre-streaming goldens."""
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[
        "scheduler_points"
    ]
    for scheduler in SCHEDULERS:
        want = golden[f"gemm-n4096-nb512-{scheduler}"]
        got = _run_gemm(scheduler, streaming=True)
        assert got["makespan_hex"] == want["makespan_hex"], scheduler
        assert got["events_fired"] == want["events_fired"], scheduler
        assert got["transfers"] == want["transfers"], scheduler
        assert got["tasks"] == want["tasks"], scheduler


def test_session_streaming_equals_eager():
    """The Session layer's streaming intake is virtual-time invisible."""
    n, nb = 4096, 512
    results = {}
    for streaming in (False, True):
        lib = make_library("xkblas", make_dgx1(8))
        base_opts = lib.runtime_options()
        lib.runtime_options = lambda o=base_opts, s=streaming: (
            dataclasses.replace(o, streaming=s)
        )
        a, b, c = (Matrix.meta(n, n) for _ in range(3))
        res = lib.call("gemm", nb, a=a, b=b, c=c)
        results[streaming] = res.seconds.hex()
    assert results[True] == results[False]


# -------------------------------------------------------------- reclamation


def test_reclamation_drops_task_references():
    observed, rt = _run_gemm(
        "xkaapi-locality-ws", streaming=True, retain=False,
        n=2048, nb=512, keep_runtime=True,
    )
    graph = rt.executor.graph
    assert graph.num_tasks == observed["tasks"]
    assert graph.num_done == graph.num_tasks
    assert graph.all_done()
    with pytest.raises(TaskGraphError):
        graph.tasks
    # The executor's pending submissions drained along with the graph (the
    # submitted flag lives on the tasks themselves and is reclaimed with
    # them).
    assert not rt.executor._submissions


def test_host_flushes_are_flushtasks_and_reclaiming_streams_complete():
    n, nb = 2048, 512
    nt = n // nb
    eager = _run_gemm("xkaapi-locality-ws", streaming=False, n=n, nb=nb)
    rt = Runtime(make_dgx1(8), RuntimeOptions(streaming=True, retain_tasks=False))
    a, b, c = (Matrix.meta(n, n) for _ in range(3))
    pa, pb, pc = rt.partition(a, nb), rt.partition(b, nb), rt.partition(c, nb)
    rt.submit_stream(build_gemm(1.0, pa, pb, 0.5, pc))
    flushes = []
    submit = rt.executor.submit

    def record(task):
        flushes.append(task)
        return submit(task)

    rt.executor.submit = record
    rt.memory_coherent_async(c, nb)
    assert len(flushes) == nt * nt
    assert all(type(task) is FlushTask for task in flushes)
    rt.sync()
    assert rt.executor.completed_tasks == eager["tasks"] == nt**3 + nt**2
    # Each flush ran as a host write-back, not as a device task.
    assert all(rt.directory.host_valid(rt.directory.lookup(t.key)) for t in pc)


def test_reclaimed_task_is_garbage_collected():
    rt = Runtime(
        make_dgx1(8),
        RuntimeOptions(retain_tasks=False, trace=False),
    )
    a, b, c = (Matrix.meta(1024, 1024) for _ in range(3))
    pa, pb, pc = (rt.partition(m, 512) for m in (a, b, c))
    tasks = build_gemm(1.0, pa, pb, 0.5, pc)
    refs = []

    def spy():
        for task in tasks:
            refs.append(weakref.ref(task))
            yield task

    rt.submit_stream(spy())
    rt.memory_coherent_async(c, 512)
    rt.sync()
    gc.collect()
    dead = sum(1 for r in refs if r() is None)
    assert len(refs) == 8
    assert dead == len(refs), f"only {dead}/{len(refs)} tasks were reclaimed"


def test_retained_mode_keeps_the_task_list():
    observed, rt = _run_gemm(
        "xkaapi-locality-ws", streaming=True, retain=True,
        n=2048, nb=512, keep_runtime=True,
    )
    graph = rt.executor.graph
    assert len(graph.tasks) == graph.num_tasks == observed["tasks"]
    assert all(t.state == "done" for t in graph.tasks)


# --------------------------------------------------------- admission window


def test_admission_window_throttles_and_completes():
    eager = _run_gemm("xkaapi-locality-ws", streaming=False, n=2048, nb=256)
    throttled = _run_gemm(
        "xkaapi-locality-ws", streaming=True, retain=False,
        n=2048, nb=256, stream_window=64,
    )
    # Every task completes even though the stream paused many times…
    assert throttled["tasks"] == eager["tasks"]
    # …and the makespan stays in the same regime (bounded lookahead may
    # shift schedules, but not wreck them).
    assert throttled["makespan"] <= eager["makespan"] * 1.5


def test_unbounded_window_still_bit_identical():
    eager = _run_gemm("xkaapi-locality-ws", streaming=False, n=2048, nb=256)
    unbounded = _run_gemm(
        "xkaapi-locality-ws", streaming=True, n=2048, nb=256,
        stream_window=None,
    )
    assert unbounded == eager


def test_dmdas_streaming_falls_back_to_eager_materialization():
    rt = Runtime(make_dgx1(8), RuntimeOptions(scheduler="starpu-dmdas"))
    a, b, c = (Matrix.meta(2048, 2048) for _ in range(3))
    pa, pb, pc = (rt.partition(m, 512) for m in (a, b, c))
    rt.submit_stream(build_gemm(1.0, pa, pb, 0.5, pc))
    # The whole graph is resident before the run: priorities can be computed.
    assert rt.executor.graph.num_tasks == 64
    rt.executor.graph.critical_path_priorities()
    rt.memory_coherent_async(c, 512)
    assert rt.sync() > 0.0
