"""Task-to-device scheduling policies.

* :class:`~repro.runtime.scheduler.locality_ws.LocalityWorkStealing` — the
  XKaapi scheduler the paper builds on (§III-A): owner-computes placement with
  a locality heuristic plus work stealing; responsible for both XKBLAS's
  reactivity and the SYR2K imbalance the paper analyses (§IV-E).
* :class:`~repro.runtime.scheduler.dmdas.DmdaScheduler` — StarPU's DMDAS
  (deque model data aware, sorted), used by Chameleon (§IV-A).
* :class:`~repro.runtime.scheduler.owner_computes.OwnerComputesScheduler` —
  strict owner-computes from each task's owner hint (the static
  distributions of cuBLAS-XT, cuBLAS-MG and SLATE; cuBLAS-XT's hints deal
  output blocks to GPUs cyclically).

:data:`SCHEDULERS` maps each policy's name (``RuntimeOptions.scheduler``) to
its constructor.
"""

from typing import Callable

from repro.runtime.scheduler.base import Scheduler
from repro.runtime.scheduler.dmdas import DmdaScheduler
from repro.runtime.scheduler.locality_ws import LocalityWorkStealing
from repro.runtime.scheduler.owner_computes import OwnerComputesScheduler

SCHEDULERS: dict[str, Callable[[int], Scheduler]] = {
    LocalityWorkStealing.name: LocalityWorkStealing,
    DmdaScheduler.name: DmdaScheduler,
    OwnerComputesScheduler.name: OwnerComputesScheduler,
}

__all__ = [
    "SCHEDULERS",
    "DmdaScheduler",
    "LocalityWorkStealing",
    "OwnerComputesScheduler",
    "Scheduler",
]
