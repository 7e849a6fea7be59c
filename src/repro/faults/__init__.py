"""Deterministic, seeded fault injection for the Slacker simulation.

``FaultPlan`` declares what goes wrong (probabilistic message faults +
scheduled node/NIC/disk/backup faults); ``FaultInjector`` binds a plan
to one cluster and one RNG stream so chaos runs replay bit-identically
from their seed.  See ``docs/FAULTS.md`` for the fault model, rollback
semantics, and the invariants the chaos fuzzer checks.
"""

from .injector import FaultInjector, FaultStats, MessageFate
from .plan import FaultPlan, MessageFaults, PartitionFault, ScheduledFault

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "MessageFate",
    "MessageFaults",
    "PartitionFault",
    "ScheduledFault",
]
