"""Frozen descriptions of benchmark cells.

A *cell* is the unit of work of every sweep experiment: one
(library, routine, N, nb, scenario) invocation on a described platform.
:class:`CellSpec` captures it as a frozen, hashable value with a canonical
cache key, so the sweep executor can deduplicate identical cells across
experiments and a point cache can persist their outcomes.

Platforms are referenced by *handle* — a (factory, gpu-count) pair resolved
through :data:`PLATFORM_FACTORIES` — rather than by object, because specs
must cross process boundaries and cache keys must be stable across runs.
Every sweep takes a handle; a hand-built
:class:`~repro.topology.platform.Platform` runs one cell at a time through
:func:`repro.bench.harness.run_point`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.topology.dgx1 import make_dgx1
from repro.topology.nvswitch import make_nvswitch_node
from repro.topology.platform import Platform
from repro.topology.summit import make_summit_node

#: Registered platform factories a :class:`PlatformHandle` can name.
PLATFORM_FACTORIES: dict[str, Callable[[int], Platform]] = {
    "dgx1": make_dgx1,
    "nvswitch": make_nvswitch_node,
    "summit": make_summit_node,
}

#: Built platforms, shared within the process (they are immutable).
_PLATFORM_CACHE: dict[tuple[str, int], Platform] = {}


@dataclasses.dataclass(frozen=True, slots=True)
class PlatformHandle:
    """A serializable reference to a registered platform factory."""

    factory: str = "dgx1"
    gpus: int = 8

    def build(self) -> Platform:
        """Resolve (and memoize) the described platform."""
        key = (self.factory, self.gpus)
        plat = _PLATFORM_CACHE.get(key)
        if plat is None:
            try:
                make = PLATFORM_FACTORIES[self.factory]
            except KeyError:
                raise ValueError(
                    f"unknown platform factory {self.factory!r}; "
                    f"choose from {sorted(PLATFORM_FACTORIES)}"
                ) from None
            plat = _PLATFORM_CACHE[key] = make(self.gpus)  # det: pure in (factory, gpus)
        return plat

    @property
    def key(self) -> str:
        return f"{self.factory}x{self.gpus}"


DEFAULT_PLATFORM = PlatformHandle("dgx1", 8)


def as_handle(platform: PlatformHandle | None) -> PlatformHandle:
    """Resolve a sweep's ``platform`` argument to a handle.

    ``None`` means the paper's default machine (8-GPU DGX-1).  A hand-built
    :class:`Platform` cannot be described by a handle, so it cannot be swept
    or cached: it raises :class:`TypeError` pointing at ``run_point``.
    """
    if platform is None:
        return DEFAULT_PLATFORM
    if isinstance(platform, PlatformHandle):
        return platform
    raise TypeError(
        f"sweeps take a PlatformHandle or None, not {type(platform).__name__}; "
        "run one cell on a hand-built Platform with run_point"
    )


@dataclasses.dataclass(frozen=True, slots=True)
class CellSpec:
    """One benchmark cell, fully determined by its fields.

    ``mode`` distinguishes what the cell measures: ``"perf"`` is one
    metadata-only routine invocation (the sweeps' unit), ``"composition"``
    is the Fig. 8 TRSM+GEMM session.  Numeric-validation and
    ``keep_runtime`` runs are deliberately *not* expressible as specs —
    they carry state a cache must never serve.
    """

    library: str
    routine: str
    n: int
    nb: int
    scenario: str = "host"
    platform: PlatformHandle = DEFAULT_PLATFORM
    mode: str = "perf"

    def cache_key(self) -> str:
        """Canonical key: every field, fixed order, fixed formatting."""
        return (
            f"{self.mode}|{self.platform.key}|{self.library}|{self.routine}"
            f"|n={self.n}|nb={self.nb}|{self.scenario}"
        )


@dataclasses.dataclass(frozen=True, slots=True)
class CellOutcome:
    """The picklable result of evaluating one cell.

    Either a measurement (``ok=True``) or a deterministic failure
    (``ok=False`` with the error kind and message — BLASX allocation
    failures and unsupported routines *are* reproducible outcomes, so they
    cache like any other point).
    """

    ok: bool
    tflops: float | None = None
    seconds: float | None = None
    flops: float | None = None
    error: str | None = None

    def to_json(self) -> dict:
        return {k: v for k, v in dataclasses.asdict(self).items() if v is not None}

    @classmethod
    def from_json(cls, payload: dict) -> CellOutcome:
        return cls(
            ok=bool(payload["ok"]),
            tflops=payload.get("tflops"),
            seconds=payload.get("seconds"),
            flops=payload.get("flops"),
            error=payload.get("error"),
        )
