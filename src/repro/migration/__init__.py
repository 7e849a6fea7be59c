"""Migration engines, throttle, slack model and the PID throttle loop.

Every engine is a :class:`MigrationEngine` (``result.py``), which holds
what they share: the constructor hooks, the target builder, the fence
gate, the handover step and the abort contract.  ``try_abort`` is
accepted until the engine's point of no return (``_past_no_return``)
and interrupts the run, which rolls back to a serving source and
raises :class:`MigrationAborted`; past it, aborts are refused.  Live
and fluid migration are one chunked pipeline (:class:`FluidMigration`),
which also moves a tenant out of a shared-process daemon;
stop-and-copy, dump-reimport and on-demand are the baselines."""

from types import MappingProxyType

from .. import _lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = MappingProxyType(
    {
        "AdditiveSlackModel": ".slack",
        "ChunkMap": ".fluid",
        "ChunkState": ".fluid",
        "ControllerConfig": ".controller",
        "DumpReimportMigration": ".stop_and_copy",
        "DynamicThrottleController": ".controller",
        "EmpiricalSlackEstimator": ".slack",
        "FluidMigration": ".fluid",
        "FluidRouter": ".fluid",
        "LatencyController": ".controller",
        "check_fluid_invariants": ".fluid",
        "Lease": ".lease",
        "LeaseManager": ".lease",
        "LeaseService": ".lease",
        "MigrationAborted": ".result",
        "MigrationEngine": ".result",
        "MigrationPhase": ".fluid",
        "MigrationResult": ".result",
        "OnDemandMigration": ".on_demand",
        "PartialReplicaEngine": ".on_demand",
        "RateLatencySample": ".slack",
        "StopAndCopyMigration": ".stop_and_copy",
        "Throttle": ".throttle",
        "ThrottleStats": ".throttle",
    }
)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
__all__ = tuple(_EXPORTS)
