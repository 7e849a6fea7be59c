"""The experiment registry: the paper's figure ids and their drivers.

Importing this module imports all nine drivers, so
:mod:`repro.experiments` imports it only on the first access of
``REGISTRY``.
"""

from . import (
    ext_source_target,
    fig5_throttle_sweep,
    fig6_overload,
    fig7_tradeoff,
    fig11_setpoint_sweep,
    fig12_timeseries,
    fig13a_dynamic_workload,
    fig13b_multitenant,
    stop_and_copy_downtime,
)

#: Experiment id -> driver module with a ``run()`` entry point.
REGISTRY = {
    "fig5": fig5_throttle_sweep,
    "fig6": fig6_overload,
    "fig7": fig7_tradeoff,
    "fig11": fig11_setpoint_sweep,
    "fig12": fig12_timeseries,
    "fig13a": fig13a_dynamic_workload,
    "fig13b": fig13b_multitenant,
    "stop-and-copy": stop_and_copy_downtime,
    "ext-source-target": ext_source_target,
}
