"""Migration engines, throttle, slack model and the PID throttle loop.

Live and fluid migration are one chunked pipeline
(:class:`FluidMigration`), which also moves a tenant out of a
shared-process daemon; stop-and-copy, dump-reimport and on-demand are
the baselines."""

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
