"""The benchmark's workloads: one long simulated BLAS/LAPACK call each.

Every workload is one *op* — a whole simulated routine call on the 8-GPU
DGX-1 model, from task-graph construction to the final host write-back —
run in perf mode (metadata-only matrices), so the host time it takes is pure
simulator work: task building, dependency tracking, scheduling, the transfer
path, link reservation and the event loop.  The three workloads lean on
different layers:

* ``gemm_ooc`` — a streamed, task-reclaiming GEMM whose operands do not fit
  the (shrunk) device caches, so nearly every task evicts: the transfer
  path, eviction index, link reservation and streaming intake;
* ``trsm_ws`` — an XKBLAS TRSM submitted as a materialized, retained graph:
  a deep dependency DAG driven by locality work stealing, i.e. dataflow and
  scheduler work with caches that never fill;
* ``posv_dmdas`` — a Chameleon-configured POTRF + POTRS composed on one
  runtime: the DMDAS scheduler's per-push cost model over a retained graph
  with critical-path priorities, and cross-call dependencies.

The seed picks the call's variant flags and scalars among variants whose
task graphs have the same size (mirror images of one another), plus the
integer data of each workload's numeric guard.  Output checks are exact:

* every op of a run repeats the first op's virtual-time fingerprint bit for
  bit (makespan float hex, engine events, task count, transfer and cache
  counters);
* the completed task count equals the routine's closed-form tile count;
* the makespan is no shorter than the flops at the platform's peak rate;
* a small numeric-mode run of the same routine, in the same runtime
  configuration, on integer-valued inputs (where float64 arithmetic is
  exact in any summation order) must reproduce a NumPy reference exactly.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Iterable, Iterator

import numpy as np

from repro import config
from repro.blas import flops as fl
from repro.blas.params import Diag, Side, Trans, Uplo
from repro.blas.tiled import build_gemm, build_trsm
from repro.lapack.potrf import build_potrf
from repro.lapack.solve import build_potrs
from repro.libraries.registry import LIBRARIES
from repro.memory.matrix import Matrix
from repro.runtime.api import Runtime
from repro.topology.dgx1 import make_dgx1

#: the power-of-two scalars the seed draws from: scaling by them is exact.
SCALARS = (1.0, -1.0, 2.0, 0.5)

@dataclasses.dataclass
class Prepared:
    """A runtime with its operands partitioned: everything before submission."""

    runtime: Runtime
    parts: dict
    matrices: dict
    #: exact host contents of the outputs after the call (numeric guard only).
    expected: dict


@dataclasses.dataclass(frozen=True)
class Fingerprint:
    """The virtual-time outcome of one op; identical inputs repeat it exactly."""

    makespan_hex: str
    events: int
    tasks: int
    transfers: tuple
    evictions: int
    hits: int
    misses: int

    @classmethod
    def of(cls, rt: Runtime, makespan: float) -> "Fingerprint":
        caches = rt.caches.values()
        return cls(
            makespan_hex=makespan.hex(),
            events=rt.sim.events_fired,
            tasks=rt.executor.completed_tasks,
            transfers=tuple(sorted(rt.transfer.stats().items())),
            evictions=sum(c.evictions for c in caches),
            hits=sum(c.hits for c in caches),
            misses=sum(c.misses for c in caches),
        )

    @property
    def makespan(self) -> float:
        return float.fromhex(self.makespan_hex)


def _int_matrix(rng: np.random.Generator, m: int, n: int, lo: int, hi: int) -> np.ndarray:
    return np.asfortranarray(rng.integers(lo, hi + 1, size=(m, n)).astype(np.float64))


def _unit_triangle(rng: np.random.Generator, n: int, lower: bool) -> np.ndarray:
    """Unit-diagonal triangle with off-diagonal entries in {-1, 0, 1}.

    Solving or factoring with it never divides by anything but 1, and
    partial pivoting keeps the diagonal (ties go to the first row), so
    LAPACK's results on integer data are exact.
    """
    t = rng.integers(-1, 2, size=(n, n)).astype(np.float64)
    t = np.tril(t, -1) if lower else np.triu(t, 1)
    np.fill_diagonal(t, 1.0)
    return t


def _op(x: np.ndarray, trans: Trans) -> np.ndarray:
    return x if trans is Trans.NOTRANS else x.T


class Workload:
    """One long op: its runtime configuration, size and exact guards."""

    name = "abstract"
    why = ""
    library = "xkblas"
    n = 0
    nb = 0
    #: operand names, in partitioning order.
    operands: tuple[str, ...] = ()
    #: operands flushed back to the host at the end of the call.
    outputs: tuple[str, ...] = ()
    #: matrix order and tile size of the numeric guard.
    guard_n = 320
    guard_nb = 64

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.variant = self.draw(random.Random(seed))
        self.platform = make_dgx1(8)

    # ------------------------------------------------------------ overrides

    def draw(self, rng: random.Random) -> dict:
        """The seed's choice of variant flags and scalars."""
        raise NotImplementedError

    def options(self, numeric: bool):
        """Runtime options of the op (``numeric`` for the guard run).

        The library's configuration with the event recorder off: that is the
        production path (a recorder switches the executor to its unfused
        dispatch path).
        """
        opts = LIBRARIES[self.library](self.platform).runtime_options()
        opts.trace = False
        return opts

    def numeric_case(self, n: int, rng: np.random.Generator) -> tuple[dict, dict]:
        """Integer-valued operand arrays and the exact expected outputs."""
        raise NotImplementedError

    def tasks(self, parts: dict) -> Iterator:
        """The routine's task generator over the partitioned operands."""
        raise NotImplementedError

    def expected_tasks(self, nt: int) -> int:
        """Closed-form task count (flushes included) for an ``nt``-tile order."""
        raise NotImplementedError

    def flops(self) -> float:
        raise NotImplementedError

    # ---------------------------------------------------------------- the op

    def prepare(self, numeric_rng: np.random.Generator | None = None) -> Prepared:
        """Construct the runtime and partition the operands (the set-up).

        Perf-mode operands by default; with ``numeric_rng``, the guard-size
        integer case.
        """
        rt = Runtime(self.platform, self.options(numeric_rng is not None))
        if numeric_rng is None:
            n, nb, expected = self.n, self.nb, {}
            matrices = {k: Matrix.meta(n, n, name=k) for k in self.operands}
        else:
            n, nb = self.guard_n, self.guard_nb
            data, expected = self.numeric_case(n, numeric_rng)
            matrices = {k: Matrix(n, n, data=np.asfortranarray(data[k]), name=k)
                        for k in self.operands}
        parts = {k: rt.partition(m, nb) for k, m in matrices.items()}
        return Prepared(rt, parts, matrices, expected)

    def run(self, prep: Prepared,
            wrap: Callable[[Iterable], Iterable] | None = None) -> Fingerprint:
        """The op: build and submit the task graph, flush outputs, sync.

        ``wrap``, when given, sees the task generator before the runtime
        does (the tracer times task building through it).
        """
        rt = prep.runtime
        tasks = self.tasks(prep.parts)
        if wrap is not None:
            tasks = wrap(tasks)
        if rt.options.streaming:
            rt.submit_stream(tasks)
        else:
            for task in tasks:
                rt.submit(task)
        for name in self.outputs:
            rt.memory_coherent_async(prep.matrices[name], prep.parts[name].nb)
        graph = rt.executor.graph
        if graph.retain_tasks:
            graph.critical_path_priorities()
        return Fingerprint.of(rt, rt.sync())

    # ---------------------------------------------------------------- guards

    def _check_tasks(self, label: str, fp: Fingerprint, n: int, nb: int) -> list[str]:
        expected = self.expected_tasks(-(-n // nb))
        if fp.tasks == expected:
            return []
        return [f"{label}: {fp.tasks} tasks completed, the tile count gives {expected}"]

    def check_fingerprint(self, fp: Fingerprint) -> list[str]:
        """Input-independent checks of one perf-mode op's outcome."""
        problems = self._check_tasks(self.name, fp, self.n, self.nb)
        bound = self.flops() / (8 * self.platform.gpus[0].fp64_peak)
        if not fp.makespan >= bound:
            problems.append(f"{self.name}: makespan {fp.makespan!r} s is below "
                            f"the peak-rate bound {bound!r} s")
        return problems

    def numeric_guard(self) -> list[str]:
        """Run the routine at guard size on integer data; compare exactly."""
        label = f"{self.name} guard"
        prep = self.prepare(numeric_rng=np.random.default_rng(self.seed))
        fp = self.run(prep)
        problems = self._check_tasks(label, fp, self.guard_n, self.guard_nb)
        for name, want in prep.expected.items():
            got = prep.matrices[name].to_array()
            if not np.array_equal(got, want):
                bad = int(np.count_nonzero(got != want))
                problems.append(f"{label}: {bad} of {want.size} entries of "
                                f"{name} differ from the exact reference")
        return problems


class GemmOutOfCore(Workload):
    name = "gemm_ooc"
    why = ("streamed GEMM whose operands overflow the device caches: "
           "transfer path, eviction index, link reservation, streaming intake")
    n = 18432
    nb = 1024
    operands = ("A", "B", "C")
    outputs = ("C",)
    #: device-cache share: ~1.1 GB (134 tiles) of each 32 GB V100, well
    #: below the tiles each GPU touches, so the caches stay full and about
    #: one tile is evicted per task.
    cache_fraction = 0.035
    #: guard-size cache share: room for 12 tiles of 64x64 per device, so the
    #: guard run also evicts about once per task (fewer tiles run out of
    #: evictable memory while a pipeline window holds its inputs pinned).
    guard_cache_fraction = 12 * 64 * 64 * 8 / config.V100_MEMORY_BYTES

    def draw(self, rng: random.Random) -> dict:
        return {
            "transa": rng.choice((Trans.NOTRANS, Trans.TRANS)),
            "transb": rng.choice((Trans.NOTRANS, Trans.TRANS)),
            "alpha": rng.choice(SCALARS),
            "beta": rng.choice(SCALARS),
        }

    def options(self, numeric: bool):
        opts = super().options(numeric)
        opts.streaming = True
        opts.retain_tasks = False
        opts.cache_fraction = (
            self.guard_cache_fraction if numeric else self.cache_fraction
        )
        return opts

    def numeric_case(self, n, rng):
        v = self.variant
        a, b, c = (_int_matrix(rng, n, n, -3, 3) for _ in range(3))
        want = v["alpha"] * (_op(a, v["transa"]) @ _op(b, v["transb"])) + v["beta"] * c
        return {"A": a, "B": b, "C": c}, {"C": want}

    def tasks(self, parts):
        v = self.variant
        return build_gemm(v["alpha"], parts["A"], parts["B"], v["beta"],
                          parts["C"], v["transa"], v["transb"])

    def expected_tasks(self, nt):
        return nt ** 3 + nt ** 2

    def flops(self):
        return fl.gemm_flops(self.n, self.n, self.n)


class TrsmWorkStealing(Workload):
    name = "trsm_ws"
    why = ("XKBLAS TRSM as a retained, materialized graph: deep dependency "
           "DAG, dataflow and locality work stealing, caches never full")
    n = 13312
    nb = 512
    operands = ("A", "B")
    outputs = ("B",)

    def draw(self, rng: random.Random) -> dict:
        # Left-side solves only: (LOWER, NOTRANS)/(UPPER, TRANS) run forward
        # and (UPPER, NOTRANS)/(LOWER, TRANS) backward, all over the same
        # number of tiles.
        return {
            "uplo": rng.choice((Uplo.LOWER, Uplo.UPPER)),
            "trans": rng.choice((Trans.NOTRANS, Trans.TRANS)),
            "alpha": rng.choice(SCALARS),
        }

    def numeric_case(self, n, rng):
        v = self.variant
        lower = v["uplo"] is Uplo.LOWER
        tri = _unit_triangle(rng, n, lower)
        # The unreferenced triangle holds garbage the kernels must not read.
        junk = _int_matrix(rng, n, n, -9, 9)
        a = tri + (np.triu(junk, 1) if lower else np.tril(junk, -1))
        x = _int_matrix(rng, n, n, -3, 3)
        b = (_op(tri, v["trans"]) @ x) / v["alpha"]
        return {"A": a, "B": b}, {"B": x}

    def tasks(self, parts):
        v = self.variant
        return build_trsm(Side.LEFT, v["uplo"], v["trans"], Diag.NONUNIT,
                          v["alpha"], parts["A"], parts["B"])

    def expected_tasks(self, nt):
        return nt * nt * (nt + 1) // 2 + nt * nt

    def flops(self):
        return fl.trsm_flops(True, self.n, self.n)


class PosvDmdas(Workload):
    name = "posv_dmdas"
    why = ("Chameleon POTRF+POTRS composed on one runtime: DMDAS cost-model "
           "scheduling, critical-path priorities, cross-call dependencies")
    library = "chameleon-tile"
    n = 7168
    nb = 512
    operands = ("A", "B")
    outputs = ("A", "B")
    guard_n = 256

    def draw(self, rng: random.Random) -> dict:
        return {"uplo": rng.choice((Uplo.LOWER, Uplo.UPPER))}

    def numeric_case(self, n, rng):
        low = _unit_triangle(rng, n, lower=True)
        x = _int_matrix(rng, n, n, -3, 3)
        a = low @ low.T
        # The factor replaces the stored triangle; the other one is untouched.
        if self.variant["uplo"] is Uplo.LOWER:
            factored = low + np.triu(a, 1)
        else:
            factored = low.T + np.tril(a, -1)
        return {"A": a, "B": a @ x}, {"A": factored, "B": x}

    def tasks(self, parts):
        uplo = self.variant["uplo"]

        def composed():
            yield from build_potrf(uplo, parts["A"])
            yield from build_potrs(uplo, parts["A"], parts["B"])

        return composed()

    def expected_tasks(self, nt):
        potrf = nt + nt * (nt - 1) + nt * (nt - 1) * (nt - 2) // 6
        potrs = nt * nt * (nt + 1)
        return potrf + potrs + 2 * nt * nt

    def flops(self):
        return fl.potrf_flops(self.n) + 2 * fl.trsm_flops(True, self.n, self.n)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (GemmOutOfCore, TrsmWorkStealing, PosvDmdas)
}
