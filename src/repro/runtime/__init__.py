"""XKaapi-equivalent dataflow task runtime.

The paper's two heuristics live here, in the transfer manager
(:mod:`repro.runtime.transfer`):

* :class:`~repro.runtime.policies.SourcePolicy.TOPOLOGY` — pick the transfer
  source among valid replicas in decreasing link-performance order (§III-B);
* :class:`~repro.runtime.policies.SourcePolicy.TOPOLOGY_OPTIMISTIC` — when no
  device replica is valid yet, chain onto an in-flight copy instead of going
  back to the host (§III-C).

The rest of the subpackage is the substrate the heuristics plug into: task
graphs derived from data access modes, per-device workers with XKaapi's
stream-per-operation-type model, schedulers (locality work stealing, DMDAS,
owner-computes), and the asynchronous user API.
"""

from repro.runtime.access import Access, AccessMode
from repro.runtime.api import Runtime, RuntimeOptions
from repro.runtime.policies import SourcePolicy
from repro.runtime.task import Task
from repro.runtime.dataflow import TaskGraph

__all__ = [
    "Access",
    "AccessMode",
    "Runtime",
    "RuntimeOptions",
    "SourcePolicy",
    "Task",
    "TaskGraph",
]
