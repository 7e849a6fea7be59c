"""Discrete-event simulation substrate (kernel, resources, RNG, tracing).

This subpackage is self-contained and domain-agnostic: it knows nothing
about databases or migration.  Everything above it (servers, the MySQL-
like engine, workloads, Slacker) is built out of its processes, events,
and resources.
"""

from .core import (
    AllOf,
    AnyOf,
    Condition,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    StopSimulation,
    Timeout,
)
from .resources import Container, Request, Resource, Store
from .rng import RandomStreams, default_rng, derive_seed
from .timers import PeriodicTicker
from .trace import Series, Trace, float_sum, sliding_window_average

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Container",
    "Environment",
    "Event",
    "Interrupt",
    "PeriodicTicker",
    "Process",
    "RandomStreams",
    "default_rng",
    "Request",
    "Resource",
    "Series",
    "SimulationError",
    "StopSimulation",
    "Store",
    "Timeout",
    "Trace",
    "derive_seed",
    "float_sum",
    "sliding_window_average",
]
