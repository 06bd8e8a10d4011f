"""The layer profiler (``repro.bench.layers``): exclusive host time per layer,
installed from outside the runtime for one ``with`` block."""

import importlib.util
import inspect
from pathlib import Path

import pytest

from repro.bench import layers
from repro.bench.layers import HOOKS, LAYERS, LayerTracer
from repro.bench.perfbench import _run_large_gemm, bench_macro

E2EBENCH_LAYERS = Path(__file__).parent.parent / "e2ebench" / "layers.py"


def _hooked() -> dict:
    """Each hooked class's own attribute per hook (``None`` if inherited)."""
    return {
        (cls, name): cls.__dict__.get(name)
        for _, cls, names in HOOKS for name in names
    }


def _streamed_gemm(wrap=iter) -> tuple:
    makespan, rt = _run_large_gemm(4096, 512, True, wrap)
    return makespan.hex(), rt.sim.events_fired, rt.transfer.stats()


def test_layer_times_plus_other_sum_to_the_traced_wall():
    res = bench_macro("macro-gemm-tiny", "gemm", n=4096, nb=1024)
    assert set(res.layers_ms) == {*LAYERS, "other"}
    assert sum(res.layers_ms.values()) == pytest.approx(
        res.traced_wall_s * 1e3, rel=1e-6
    )
    # Spans lie inside the traced run, so no layer claims more than it.
    assert res.layers_ms["other"] >= 0.0
    for layer in ("dataflow", "scheduler", "executor", "transfer",
                  "channel", "engine"):
        assert res.layers_ms[layer] > 0.0, layer


def test_traced_run_matches_an_untraced_one():
    plain = _streamed_gemm()
    tracer = LayerTracer()
    with tracer:
        traced = _streamed_gemm(tracer.tasks)
    assert traced == plain
    # Every layer is entered, build through the wrapped task stream.
    assert all(ns > 0 for ns in tracer.self_ns.values()), tracer.self_ns


def test_exit_restores_every_hook_also_when_the_block_raises():
    before = _hooked()
    with LayerTracer():
        during = _hooked()
    assert all(during[key] is not before[key] for key in before)
    assert all(_hooked()[key] is before[key] for key in before)

    with pytest.raises(ZeroDivisionError):
        with LayerTracer():
            1 / 0
    assert all(_hooked()[key] is before[key] for key in before)


def test_a_hook_that_is_not_a_plain_method_installs_nothing(monkeypatch):
    class Odd:
        value = 3

    before = _hooked()
    monkeypatch.setattr(layers, "HOOKS", HOOKS + (("engine", Odd, ("value",)),))
    with pytest.raises(TypeError, match="Odd.value"):
        with LayerTracer():
            pass
    assert all(_hooked()[key] is before[key] for key in before)


def test_hook_table_matches_the_repository_benchmark():
    """``e2ebench/layers.py`` hooks the same methods; a renamed hook fails
    here, not only in the repository benchmark's own run."""
    spec = importlib.util.spec_from_file_location("e2ebench_layers", E2EBENCH_LAYERS)
    e2e = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(e2e)

    def table(hooks):
        return [(layer, cls.__name__, names) for layer, cls, names in hooks]

    assert table(HOOKS) == table(e2e.HOOKS)
    assert LAYERS == e2e.LAYERS
    for _, cls, names in HOOKS:
        for name in names:
            assert inspect.isfunction(inspect.getattr_static(cls, name)), (
                f"{cls.__name__}.{name}"
            )
