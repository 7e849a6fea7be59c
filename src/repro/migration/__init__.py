"""Migration engine: throttle, slack model, stop-and-copy, live migration,
and the PID-driven dynamic throttle controller."""

from .controller import ControllerConfig, DynamicThrottleController, LatencyController
from .fluid import (
    ChunkMap,
    ChunkState,
    FluidMigration,
    FluidPhase,
    FluidRouter,
    check_fluid_invariants,
)
from .lease import Lease, LeaseManager, LeaseService
from .live import LiveMigration, MigrationAborted, MigrationPhase
from .on_demand import OnDemandMigration, PartialReplicaEngine
from .result import MigrationResult
from .shared_live import SharedTenantMigration
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
    "FluidPhase",
    "FluidRouter",
    "LatencyController",
    "check_fluid_invariants",
    "Lease",
    "LeaseManager",
    "LeaseService",
    "LiveMigration",
    "MigrationAborted",
    "MigrationPhase",
    "MigrationResult",
    "OnDemandMigration",
    "PartialReplicaEngine",
    "RateLatencySample",
    "SharedTenantMigration",
    "StopAndCopyMigration",
    "Throttle",
    "ThrottleStats",
]
