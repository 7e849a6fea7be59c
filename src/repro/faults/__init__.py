"""Deterministic, seeded fault injection for the Slacker simulation.

``FaultPlan`` declares what goes wrong (probabilistic message faults +
scheduled node/NIC/disk/backup faults); ``FaultInjector`` binds a plan
to one cluster and one RNG stream so chaos runs replay bit-identically
from their seed.  See ``docs/FAULTS.md`` for the fault model, rollback
semantics, and the invariants the chaos fuzzer checks.
"""

from types import MappingProxyType

from .. import _lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = MappingProxyType(
    {
        "FaultInjector": ".injector",
        "FaultPlan": ".plan",
        "FaultStats": ".injector",
        "MessageFate": ".injector",
        "MessageFaults": ".plan",
        "PartitionFault": ".plan",
        "ScheduledFault": ".plan",
    }
)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
__all__ = tuple(_EXPORTS)
