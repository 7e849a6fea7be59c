"""Discrete-event simulation substrate (kernel, resources, RNG, tracing).

This subpackage is self-contained and domain-agnostic: it knows nothing
about databases or migration.  Everything above it (servers, the MySQL-
like engine, workloads, Slacker) is built out of its processes, events,
and resources.
"""

from types import MappingProxyType

from .. import _lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = MappingProxyType(
    {
        "AllOf": ".core",
        "AnyOf": ".core",
        "Condition": ".core",
        "Container": ".resources",
        "Environment": ".core",
        "Event": ".core",
        "Interrupt": ".core",
        "PeriodicTicker": ".timers",
        "Process": ".core",
        "RandomStreams": ".rng",
        "default_rng": ".rng",
        "Request": ".resources",
        "Resource": ".resources",
        "Series": ".trace",
        "SimulationError": ".core",
        "StopSimulation": ".core",
        "Store": ".resources",
        "Timeout": ".core",
        "Trace": ".trace",
        "derive_seed": ".rng",
        "float_sum": ".trace",
        "sliding_window_average": ".trace",
    }
)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
__all__ = tuple(_EXPORTS)
