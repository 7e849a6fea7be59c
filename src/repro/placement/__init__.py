"""Placement: when to migrate, which tenant, and where to.

The paper's Section 8 lists these as synergistic questions around
Slacker's "how".  This subpackage provides load monitoring, hotspot
detection, tenant/target choosers, and an autonomous rebalancing
manager built on Slacker's latency-aware migrations — scaled out by a
wave planner/executor that runs concurrent migrations under per-node
slack budgets (docs/FLEET.md).
"""

from types import MappingProxyType

from .. import _lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = MappingProxyType(
    {
        "BudgetEvent": ".budget",
        "BudgetReservation": ".budget",
        "ConsolidationChooser": ".policy",
        "CostEstimate": ".costs",
        "CostParameters": ".costs",
        "DrainReport": ".decisions",
        "MigrationCostBenefit": ".costs",
        "GreedyReliefChooser": ".policy",
        "HotspotDetector": ".policy",
        "LatencyHotspotDetector": ".policy",
        "LoadMonitor": ".monitor",
        "MigrationProposal": ".policy",
        "NodeLoad": ".monitor",
        "PlacementChooser": ".policy",
        "PlacementDecision": ".decisions",
        "PlacementManager": ".manager",
        "PlacementStats": ".decisions",
        "SlackBudgetLedger": ".budget",
        "TenantLoad": ".monitor",
        "UtilizationHotspotDetector": ".policy",
        "WaveExecutor": ".executor",
        "WavePlanner": ".executor",
    }
)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
__all__ = tuple(_EXPORTS)
