"""XKBLAS — the paper's library, in three variants.

* ``XkBlas`` — both heuristics enabled (the "XKBlas" curves);
* ``XkBlasNoHeuristic`` — optimistic device-to-device forwarding disabled,
  topology-aware ranking kept ("XKBlas, no heuristic");
* ``XkBlasNoTopo`` — neither heuristic ("XKBlas, no heuristic, no topo").

Any variant runs the data-on-device scenario of Fig. 4 when a routine is
called with ``scenario="device"``.

All variants share the XKaapi substrate: lightweight task creation,
locality-aware work stealing, read-only-first eviction, one stream per
operation type (several kernel streams per GPU, modelled as a lookahead window
of 8 tasks in flight on the device's one compute engine), asynchronous
semantics with lazy CPU coherence.
"""

from __future__ import annotations

from repro import config
from repro.libraries.base import SimulatedLibrary
from repro.memory.cache import ReadOnlyFirstPolicy
from repro.runtime.api import RuntimeOptions
from repro.runtime.policies import SourcePolicy


class XkBlas(SimulatedLibrary):
    """XKBLAS with the two topology-aware heuristics enabled (§III-B/C)."""

    name = "XKBlas"
    source_policy = SourcePolicy.TOPOLOGY_OPTIMISTIC

    def runtime_options(self) -> RuntimeOptions:
        return RuntimeOptions(
            source_policy=self.source_policy,
            scheduler="xkaapi-locality-ws",
            eviction=ReadOnlyFirstPolicy.name,
            task_overhead=config.XKAAPI_TASK_OVERHEAD,
            pipeline_window=8,
            overlap=True,
        )


class XkBlasNoHeuristic(XkBlas):
    """XKBLAS with the optimistic D2D heuristic disabled (Fig. 3's middle bar)."""

    name = "XKBlas, no heuristic"
    source_policy = SourcePolicy.TOPOLOGY


class XkBlasNoTopo(XkBlas):
    """XKBLAS with both heuristics disabled (Fig. 3's last bar)."""

    name = "XKBlas, no heuristic, no topo"
    source_policy = SourcePolicy.ANY_VALID
