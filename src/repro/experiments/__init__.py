"""Experiment drivers: one module per paper figure, plus the shared harness.

The registry maps each experiment id (the paper's figure/section
number) to the module whose ``run()`` regenerates it; see DESIGN.md for
the full index and EXPERIMENTS.md for paper-vs-measured results.
"""

from types import MappingProxyType

from .. import _lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = MappingProxyType(
    {
        "DEFAULT_SCALE": ".common",
        "ExperimentOutcome": ".harness",
        "MigrationSpec": ".harness",
        "RateChange": ".harness",
        "REGISTRY": ".registry",
        "TenantOutcome": ".harness",
        "attach_workload": ".harness",
        "run_single_tenant": ".harness",
        "scaled_config": ".common",
    }
)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
__all__ = tuple(_EXPORTS)
