"""Migration engines, throttle, slack model and the PID throttle loop.

Live and fluid migration are one chunked pipeline
(:class:`FluidMigration`), which also moves a tenant out of a
shared-process daemon; stop-and-copy, dump-reimport and on-demand are
the baselines."""

from .controller import ControllerConfig, DynamicThrottleController, LatencyController
from .fluid import (
    ChunkMap,
    ChunkState,
    FluidMigration,
    FluidRouter,
    MigrationPhase,
    check_fluid_invariants,
)
from .lease import Lease, LeaseManager, LeaseService
from .on_demand import OnDemandMigration, PartialReplicaEngine
from .result import MigrationAborted, MigrationResult
from .slack import AdditiveSlackModel, EmpiricalSlackEstimator, RateLatencySample
from .stop_and_copy import DumpReimportMigration, StopAndCopyMigration
from .throttle import Throttle, ThrottleStats

__all__ = [
    "AdditiveSlackModel",
    "ChunkMap",
    "ChunkState",
    "ControllerConfig",
    "DumpReimportMigration",
    "DynamicThrottleController",
    "EmpiricalSlackEstimator",
    "FluidMigration",
    "FluidRouter",
    "LatencyController",
    "check_fluid_invariants",
    "Lease",
    "LeaseManager",
    "LeaseService",
    "MigrationAborted",
    "MigrationPhase",
    "MigrationResult",
    "OnDemandMigration",
    "PartialReplicaEngine",
    "RateLatencySample",
    "StopAndCopyMigration",
    "Throttle",
    "ThrottleStats",
]
