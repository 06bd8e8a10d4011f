"""Golden-makespan determinism tests.

Two guarantees, both load-bearing for the performance work:

* **run-to-run determinism** — executing the same perf-mode routine twice on
  fresh simulators yields bit-identical makespans, transfer stats and event
  counts (no hidden host state, no salted hashing, no heap-order ambiguity);
* **bit-identity against the recorded goldens** — the values in
  ``tests/data/golden_makespans.json`` were recorded on the *pre-optimization*
  hot path (PR 2); every optimization since must reproduce them exactly.
  A mismatch here means an "optimization" changed simulated behaviour, which
  is a correctness bug no wall-time win can justify.  ``events_fired`` counts
  the submission pump's folded dispatches; where a point records
  ``events_unfolded`` and the test builds the runtime itself, the same point
  is replayed under ``sync(max_events=...)`` (folding off, one dispatch per
  submission) and must fire exactly that many events with every other field
  unchanged.

When a *deliberate* model change shifts these numbers, re-record the golden
file and say so in the commit — never loosen the comparison.
"""

import json
from pathlib import Path

import pytest

from repro import config
from repro.bench.harness import run_point
from repro.blas.params import Diag, Side, Trans, Uplo
from repro.blas.tiled.gemm import build_gemm
from repro.blas.tiled.trsm import build_trsm
from repro.lapack.potrf import build_potrf
from repro.lapack.solve import build_potrs
from repro.libraries.registry import LIBRARIES
from repro.memory.layout import BlockCyclicDistribution
from repro.memory.matrix import Matrix
from repro.runtime.api import Runtime, RuntimeOptions
from repro.runtime.policies import SourcePolicy
from repro.topology.dgx1 import make_dgx1

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_makespans.json"

_RECORDED = ("makespan", "makespan_hex", "events_fired", "transfers", "tasks")

#: event budget that only switches folding off (no golden point comes close).
_UNFOLDED = 10**9


def _outcome(rt: Runtime, makespan: float) -> dict:
    return {
        "makespan": makespan,
        "makespan_hex": makespan.hex(),
        "events_fired": rt.sim.events_fired,
        "transfers": rt.transfer.stats(),
        "tasks": rt.executor.completed_tasks,
    }


def _observe(routine: str, n: int, nb: int) -> dict:
    res = run_point(
        library="xkblas", routine=routine, n=n, nb=nb, keep_runtime=True
    )
    rt = res.runtime
    assert rt is not None
    return _outcome(rt, res.seconds)


def _observe_with_scheduler(
    scheduler: str,
    n: int,
    nb: int,
    source_policy: SourcePolicy = SourcePolicy.TOPOLOGY_OPTIMISTIC,
    max_events: int | None = None,
) -> dict:
    """One GEMM point under a specific scheduling and source policy.

    Mirrors the recording script for ``scheduler_points``: owner-computes
    needs a distribution to derive owners from, every other policy runs with
    its defaults.  Priorities are assigned exactly as ``Session.sync`` does.
    A ``max_events`` budget turns submission folding off.
    """
    opts: dict = {"scheduler": scheduler, "source_policy": source_policy}
    if scheduler == "owner-computes":
        opts["distribution"] = BlockCyclicDistribution(2, 4)
    rt = Runtime(make_dgx1(8), RuntimeOptions(**opts))
    a, b, c = (Matrix.meta(n, n) for _ in range(3))
    pa, pb, pc = rt.partition(a, nb), rt.partition(b, nb), rt.partition(c, nb)
    for task in build_gemm(1.0, pa, pb, 0.5, pc):
        rt.submit(task)
    rt.memory_coherent_async(c, nb)
    rt.executor.graph.critical_path_priorities()
    return _outcome(rt, rt.sync(max_events=max_events))


def _unfolded(rec: dict) -> dict:
    """What a ``sync(max_events=...)`` replay of ``rec`` must observe."""
    return {**{k: rec[k] for k in _RECORDED}, "events_fired": rec["events_unfolded"]}


def _observe_posv(library: str, uplo: str, n: int, nb: int) -> dict:
    """POTRF then POTRS composed on one runtime in ``library``'s production
    configuration (event recorder off, i.e. the fused dispatch path), both
    operands flushed back to the host."""
    platform = make_dgx1(8)
    opts = LIBRARIES[library](platform).runtime_options()
    opts.trace = False
    rt = Runtime(platform, opts)
    a, b = Matrix.meta(n, n, name="A"), Matrix.meta(n, n, name="B")
    pa, pb = rt.partition(a, nb), rt.partition(b, nb)
    for task in build_potrf(Uplo(uplo), pa):
        rt.submit(task)
    for task in build_potrs(Uplo(uplo), pa, pb):
        rt.submit(task)
    rt.memory_coherent_async(a, nb)
    rt.memory_coherent_async(b, nb)
    rt.executor.graph.critical_path_priorities()
    return _outcome(rt, rt.sync())


def eviction_runtime(
    policy: str, mode: str, *, trace: bool = False,
    n: int = 8192, nb: int = 512, cache_tiles: int = 40,
) -> Runtime:
    """The ``eviction_points`` recipe, submitted and not yet run.

    A left, lower, no-trans, non-unit TRSM (alpha = 1) on the 8-GPU DGX-1
    with B flushed back to the host, every device cache sized to hold
    ``cache_tiles`` tiles: the caches fill, so ``policy`` picks victims and
    dirty ones are written back mid-run.  ``mode`` is ``"eager"`` (graph
    retained) or ``"streamed"`` (reclaiming, ``stream_window=512``).  At the
    recorded size the graph has 2,176 kernel tasks and 256 flushes, so the
    streamed run is past the admission window, where submission instants
    become completion-driven.
    """
    opts = RuntimeOptions(
        eviction=policy,
        cache_fraction=cache_tiles * nb * nb * 8 / config.V100_MEMORY_BYTES,
        trace=trace,
    )
    if mode == "streamed":
        opts.retain_tasks = False
        opts.stream_window = 512
    rt = Runtime(make_dgx1(8), opts)
    a, b = Matrix.meta(n, n, name="A"), Matrix.meta(n, n, name="B")
    pa, pb = rt.partition(a, nb), rt.partition(b, nb)
    tasks = build_trsm(
        Side.LEFT, Uplo.LOWER, Trans.NOTRANS, Diag.NONUNIT, 1.0, pa, pb
    )
    if mode == "streamed":
        rt.submit_stream(tasks)
    else:
        for task in tasks:
            rt.submit(task)
    rt.memory_coherent_async(b, nb)
    return rt


def _observe_eviction(rec: dict) -> dict:
    rt = eviction_runtime(
        rec["eviction"], rec["mode"],
        n=rec["n"], nb=rec["nb"], cache_tiles=rec["cache_tiles"],
    )
    out = _outcome(rt, rt.sync())
    out["caches"] = [
        {"evictions": c.evictions, "hits": c.hits, "misses": c.misses}
        for c in rt.caches.values()
    ]
    return out


def _golden(section: str) -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[section]


@pytest.mark.parametrize("routine", ["gemm", "trsm"])
def test_two_fresh_runs_are_bit_identical(routine):
    first = _observe(routine, n=8192, nb=1024)
    second = _observe(routine, n=8192, nb=1024)
    assert first == second


@pytest.mark.parametrize("name", sorted(_golden("points")))
def test_makespans_match_recorded_goldens(name):
    rec = _golden("points")[name]
    got = _observe(rec["routine"], rec["n"], rec["nb"])
    expected = {k: rec[k] for k in _RECORDED}
    assert got == expected, (
        f"{name} drifted from the recorded golden — simulated behaviour "
        "changed; if deliberate, re-record tests/data/golden_makespans.json"
    )


@pytest.mark.parametrize("name", sorted(_golden("scheduler_points")))
def test_scheduler_parity_goldens(name):
    """One recorded GEMM point per scheduling policy.

    The hot-path rework (array directory, indexed ready queues, incremental
    wake-up) touches structures every scheduler pops from; these goldens pin
    each policy's pop/steal order, not just the default one the macro points
    exercise.
    """
    rec = _golden("scheduler_points")[name]
    got = _observe_with_scheduler(rec["scheduler"], rec["n"], rec["nb"])
    expected = {k: rec[k] for k in _RECORDED}
    assert got == expected, (
        f"{name} drifted from the recorded golden — scheduler behaviour "
        "changed; if deliberate, re-record tests/data/golden_makespans.json"
    )
    unfolded = _observe_with_scheduler(
        rec["scheduler"], rec["n"], rec["nb"], max_events=_UNFOLDED
    )
    assert unfolded == _unfolded(rec), f"{name}: unfolded replay drifted"


@pytest.mark.parametrize("name", sorted(_golden("dmdas_policy_points")))
def test_dmdas_source_policy_goldens(name):
    """One recorded DMDAS GEMM point per source policy, on ragged tiles.

    DMDAS prices every candidate device with the transfer manager's read-only
    source estimate, which branches on the policy; these goldens pin its
    placements under each of the four, not just the default one.
    """
    rec = _golden("dmdas_policy_points")[name]
    policy = SourcePolicy(rec["source_policy"])
    got = _observe_with_scheduler(rec["scheduler"], rec["n"], rec["nb"], policy)
    expected = {k: rec[k] for k in _RECORDED}
    assert got == expected, (
        f"{name} drifted from the recorded golden — DMDAS placement "
        "changed; if deliberate, re-record tests/data/golden_makespans.json"
    )
    unfolded = _observe_with_scheduler(
        rec["scheduler"], rec["n"], rec["nb"], policy, max_events=_UNFOLDED
    )
    assert unfolded == _unfolded(rec), f"{name}: unfolded replay drifted"


@pytest.mark.parametrize("name", sorted(_golden("posv_points")))
def test_posv_production_goldens(name):
    """POTRF+POTRS composed on one runtime, as Chameleon runs it in the
    paper's composition study: DMDAS, TOPOLOGY sources, two kernel streams
    per GPU and transfer/compute overlap."""
    rec = _golden("posv_points")[name]
    got = _observe_posv(rec["library"], rec["uplo"], rec["n"], rec["nb"])
    expected = {k: rec[k] for k in _RECORDED}
    assert got == expected, (
        f"{name} drifted from the recorded golden — simulated behaviour "
        "changed; if deliberate, re-record tests/data/golden_makespans.json"
    )


@pytest.mark.parametrize("name", sorted(_golden("eviction_points")))
def test_eviction_goldens(name):
    """TRSM with caches that fill, under each eviction policy.

    Every other golden runs with caches that never fill; these pin victim
    order, mid-run write-back timing and per-device hit/miss/eviction counts,
    eager and past the streaming admission window.
    """
    rec = _golden("eviction_points")[name]
    got = _observe_eviction(rec)
    expected = {k: rec[k] for k in (*_RECORDED, "caches")}
    assert got == expected, (
        f"{name} drifted from the recorded golden — victim choice or "
        "write-back timing changed; if deliberate, re-record "
        "tests/data/golden_makespans.json"
    )
