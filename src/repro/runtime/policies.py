"""Transfer source-selection policies — the paper's ablation axis.

The four policies map one-to-one onto the configurations of the paper's
Figure 3:

* ``TOPOLOGY_OPTIMISTIC`` — "XKBlas": both heuristics enabled.
* ``TOPOLOGY`` — "XKBlas, no heuristic": optimistic device-to-device chaining
  disabled, topology-aware source ranking kept.
* ``ANY_VALID`` — "XKBlas, no heuristic, no topo": any valid device replica
  may serve as source (first found, no ranking), falling back to the host.
* ``HOST_ONLY`` — degenerate baseline used by libraries that never exploit
  P2P (SLATE's batched outer-product path, cuBLAS-XT).
"""

from __future__ import annotations

import enum


class SourcePolicy(enum.Enum):
    """How the transfer manager picks the source replica of a tile."""

    HOST_ONLY = "host-only"
    ANY_VALID = "any-valid"
    TOPOLOGY = "topology"
    TOPOLOGY_OPTIMISTIC = "topology-optimistic"

    @property
    def uses_device_sources(self) -> bool:
        return self is not SourcePolicy.HOST_ONLY

    @property
    def topology_aware(self) -> bool:
        return self in (SourcePolicy.TOPOLOGY, SourcePolicy.TOPOLOGY_OPTIMISTIC)

    @property
    def optimistic(self) -> bool:
        return self is SourcePolicy.TOPOLOGY_OPTIMISTIC
