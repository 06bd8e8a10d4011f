"""Property tests on the tiled task-graph builders.

Two invariants over random shapes and tile sizes:

* **flop conservation** — the task flops of a builder sum exactly to the
  routine's closed-form flop count (so perf-mode timing and the GFlop/s
  denominators agree for every shape, ragged tiles included);
* **single-writer coverage** — the set of written tiles is exactly the
  routine's output region (full C, or the stored triangle).

And one over every builder variant at two grid sizes:

* **kernel sharing** — a builder creates each kernel variant once per call,
  so the number of distinct ``task.kernel`` closures does not grow with the
  tile grid.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.blas import flops as fl
from repro.blas import tiled
from repro.blas.params import Diag, Side, Trans, Uplo
from repro.lapack import (
    build_getrf_nopiv,
    build_lauum,
    build_potrf,
    build_potrs,
    build_trtri,
)
from repro.memory.layout import TilePartition
from repro.memory.matrix import Matrix


def part(m, n, nb):
    return TilePartition(Matrix.meta(m, n), nb)


dims = st.integers(1, 7)
nbs = st.sampled_from([5, 8, 13])


@settings(max_examples=40, deadline=None)
@given(mi=dims, ni=dims, ki=dims, nb=nbs)
def test_gemm_flops_conserved(mi, ni, ki, nb):
    m, n, k = mi * nb + 3, ni * nb + 1, ki * nb + 2
    tasks = list(
        tiled.build_gemm(1.0, part(m, k, nb), part(k, n, nb), 0.5, part(m, n, nb))
    )
    total = sum(t.flops for t in tasks)
    assert total == pytest.approx(fl.gemm_flops(m, n, k))
    written = {t.output_tile.key for t in tasks}
    assert len(written) == -(-m // nb) * -(-n // nb)


@settings(max_examples=30, deadline=None)
@given(ni=dims, ki=dims, nb=nbs, uplo=st.sampled_from(list(Uplo)))
def test_syrk_flops_close_and_triangle_covered(ni, ki, nb, uplo):
    n, k = ni * nb + 2, ki * nb + 1
    tasks = list(
        tiled.build_syrk(uplo, Trans.NOTRANS, 1.0, part(n, k, nb), 0.0, part(n, n, nb))
    )
    total = sum(t.flops for t in tasks)
    # Diagonal tiles use the exact syrk count, off-diagonal tiles full gemm:
    # the sum matches the routine count to within the diagonal's linear term.
    assert total == pytest.approx(fl.syrk_flops(n, k), rel=0.02)
    written = {(t.output_tile.i, t.output_tile.j) for t in tasks}
    nt = -(-n // nb)
    expect = {
        (i, j)
        for i in range(nt)
        for j in range(nt)
        if (j <= i if uplo is Uplo.LOWER else j >= i)
    }
    assert written == expect


@settings(max_examples=30, deadline=None)
@given(mi=dims, ni=dims, nb=nbs, side=st.sampled_from(list(Side)),
       uplo=st.sampled_from(list(Uplo)))
def test_trsm_flops_conserved(mi, ni, nb, side, uplo):
    m, n = mi * nb + 1, ni * nb + 2
    order = m if side is Side.LEFT else n
    tasks = list(
        tiled.build_trsm(
            side, uplo, Trans.NOTRANS, Diag.NONUNIT, 1.0,
            part(order, order, nb), part(m, n, nb),
        )
    )
    total = sum(t.flops for t in tasks)
    assert total == pytest.approx(fl.trsm_flops(side is Side.LEFT, m, n), rel=0.02)


@settings(max_examples=30, deadline=None)
@given(mi=dims, ni=dims, nb=nbs, side=st.sampled_from(list(Side)),
       uplo=st.sampled_from(list(Uplo)))
def test_trmm_flops_conserved(mi, ni, nb, side, uplo):
    m, n = mi * nb + 2, ni * nb + 1
    order = m if side is Side.LEFT else n
    tasks = list(
        tiled.build_trmm(
            side, uplo, Trans.NOTRANS, Diag.NONUNIT, 1.0,
            part(order, order, nb), part(m, n, nb),
        )
    )
    total = sum(t.flops for t in tasks)
    assert total == pytest.approx(fl.trmm_flops(side is Side.LEFT, m, n), rel=0.02)


@settings(max_examples=20, deadline=None)
@given(ni=dims, nb=nbs, uplo=st.sampled_from(list(Uplo)))
def test_potrf_flops_conserved(ni, nb, uplo):
    n = ni * nb + 3
    tasks = list(build_potrf(uplo, part(n, n, nb)))
    total = sum(t.flops for t in tasks)
    # The tile decomposition over-counts by O(n²) terms (diagonal-tile
    # formulas); the relative error shrinks as nb/n.
    assert total == pytest.approx(n**3 / 3.0, rel=max(0.02, 1.5 * nb / n))
    # Written tiles lie in the stored triangle only.
    for t in tasks:
        i, j = t.output_tile.i, t.output_tile.j
        assert j <= i if uplo is Uplo.LOWER else j >= i


@settings(max_examples=20, deadline=None)
@given(ni=dims, nb=nbs, uplo=st.sampled_from(list(Uplo)))
def test_trtri_and_lauum_flops_conserved(ni, nb, uplo):
    n = ni * nb + 1
    tol = max(0.02, 1.5 * nb / n)
    trtri_total = sum(
        t.flops for t in build_trtri(uplo, Diag.NONUNIT, part(n, n, nb))
    )
    assert trtri_total == pytest.approx(n**3 / 3.0, rel=tol)
    lauum_total = sum(t.flops for t in build_lauum(uplo, part(n, n, nb)))
    assert lauum_total == pytest.approx(n**3 / 3.0, rel=tol)


@settings(max_examples=20, deadline=None)
@given(ni=dims, nb=nbs)
def test_getrf_flops_conserved(ni, nb):
    n = ni * nb + 2
    total = sum(t.flops for t in build_getrf_nopiv(part(n, n, nb)))
    assert total == pytest.approx(2.0 * n**3 / 3.0, rel=max(0.02, 1.5 * nb / n))


@settings(max_examples=25, deadline=None)
@given(ni=dims, ki=dims, nb=nbs, uplo=st.sampled_from(list(Uplo)))
def test_syr2k_is_twice_syrk(ni, ki, nb, uplo):
    n, k = ni * nb, ki * nb
    syrk_total = sum(
        t.flops
        for t in tiled.build_syrk(uplo, Trans.NOTRANS, 1.0, part(n, k, nb), 0.0, part(n, n, nb))
    )
    syr2k_total = sum(
        t.flops
        for t in tiled.build_syr2k(
            uplo, Trans.NOTRANS, 1.0, part(n, k, nb), part(n, k, nb), 0.0, part(n, n, nb)
        )
    )
    assert syr2k_total == pytest.approx(2 * syrk_total)


# ------------------------------------------------------------ kernel sharing


def _kernel_sharing_cases():
    """``(id, build)`` per builder variant; ``build(sq)`` takes a factory of
    fresh perf-mode square partitions."""
    cases = [("gemm", lambda sq: tiled.build_gemm(1.5, sq(), sq(), 0.5, sq()))]
    cases.append(("getrf-nopiv", lambda sq: build_getrf_nopiv(sq())))
    for side in Side:
        s = side.name.lower()
        cases += [
            (f"symm-{s}", lambda sq, side=side: tiled.build_symm(
                side, Uplo.LOWER, 1.5, sq(), sq(), 0.5, sq())),
            (f"hemm-{s}", lambda sq, side=side: tiled.build_hemm(
                side, Uplo.UPPER, 1.5, sq(), sq(), 0.5, sq())),
            (f"trmm-{s}", lambda sq, side=side: tiled.build_trmm(
                side, Uplo.LOWER, Trans.TRANS, Diag.NONUNIT, 1.5, sq(), sq())),
        ]
        for uplo in Uplo:
            for trans in (Trans.NOTRANS, Trans.TRANS):
                cases.append((
                    f"trsm-{s}-{uplo.name.lower()}-{trans.name.lower()}",
                    lambda sq, side=side, uplo=uplo, trans=trans: tiled.build_trsm(
                        side, uplo, trans, Diag.NONUNIT, 1.5, sq(), sq()),
                ))
    for trans, herm in ((Trans.NOTRANS, Trans.NOTRANS), (Trans.TRANS, Trans.CONJTRANS)):
        t = trans.name.lower()
        cases += [
            (f"syrk-{t}", lambda sq, trans=trans: tiled.build_syrk(
                Uplo.LOWER, trans, 1.5, sq(), 0.5, sq())),
            (f"herk-{t}", lambda sq, herm=herm: tiled.build_herk(
                Uplo.UPPER, herm, 1.5, sq(), 0.5, sq())),
            (f"syr2k-{t}", lambda sq, trans=trans: tiled.build_syr2k(
                Uplo.LOWER, trans, 1.5, sq(), sq(), 0.5, sq())),
            (f"her2k-{t}", lambda sq, herm=herm: tiled.build_her2k(
                Uplo.UPPER, herm, 1.5, sq(), sq(), 0.5, sq())),
        ]
    for uplo in Uplo:
        u = uplo.name.lower()
        cases += [
            (f"potrf-{u}", lambda sq, uplo=uplo: build_potrf(uplo, sq())),
            (f"trtri-{u}", lambda sq, uplo=uplo: build_trtri(uplo, Diag.UNIT, sq())),
            (f"lauum-{u}", lambda sq, uplo=uplo: build_lauum(uplo, sq())),
            (f"potrs-{u}", lambda sq, uplo=uplo: build_potrs(uplo, sq(), sq())),
        ]
    return cases


_KERNEL_CASES = _kernel_sharing_cases()


@pytest.mark.parametrize(
    "build", [b for _, b in _KERNEL_CASES], ids=[i for i, _ in _KERNEL_CASES]
)
def test_builders_share_one_kernel_per_variant(build):
    # A closure per task is memory a perf-mode run holds and never calls:
    # the distinct kernels of a graph are its variants, whatever its size.
    nb = 8
    counts = []
    for nt in (4, 8):
        tasks = list(build(lambda: part(nt * nb, nt * nb, nb)))
        counts.append(len({t.kernel for t in tasks}))
    assert counts[0] == counts[1] <= 8
