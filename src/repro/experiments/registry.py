"""The experiment registry: the paper's figure ids, drivers and descriptions.

One table, :data:`EXPERIMENTS`, names each driver module and describes
it without importing it; :data:`REGISTRY` imports a driver only when
it is looked up, so ``python -m repro list`` loads none.
"""

from collections.abc import Mapping
from importlib import import_module

#: Experiment id -> (driver module in this package, one-line description).
EXPERIMENTS = {
    "fig5": (
        "fig5_throttle_sweep",
        "latency under fixed throttles (case study, Figures 5a-5d)",
    ),
    "fig6": ("fig6_overload", "slack exceeded: 16 MB/s overload divergence (Figure 6)"),
    "fig7": ("fig7_tradeoff", "migration speed vs. performance tradeoff (Figure 7)"),
    "fig11": (
        "fig11_setpoint_sweep",
        "fixed vs. Slacker sweeps: knee, plateau, tracking (Figure 11)",
    ),
    "fig12": (
        "fig12_timeseries",
        "throttle/latency time series at 1000 ms setpoint (Figure 12)",
    ),
    "fig13a": (
        "fig13a_dynamic_workload",
        "+40% workload surge mid-migration (Figure 13a)",
    ),
    "fig13b": (
        "fig13b_multitenant",
        "migrating 1 of 5 collocated tenants (Figure 13b)",
    ),
    "stop-and-copy": (
        "stop_and_copy_downtime",
        "downtime vs. database size (Section 2.3.1)",
    ),
    "ext-source-target": (
        "ext_source_target",
        "max(source, target) throttling (Section 6)",
    ),
}


class _Drivers(Mapping):
    """Experiment id -> driver module with a ``run()`` entry point."""

    def __getitem__(self, experiment_id: str):
        module, _ = EXPERIMENTS[experiment_id]
        return import_module(f"{__package__}.{module}")

    def __iter__(self):
        return iter(EXPERIMENTS)

    def __len__(self) -> int:
        return len(EXPERIMENTS)


#: Experiment id -> driver module, imported on lookup.
REGISTRY = _Drivers()
