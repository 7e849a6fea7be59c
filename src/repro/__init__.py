"""Slacker: latency-aware live migration for multitenant databases.

A from-scratch Python reproduction of Barker et al., '"Cut Me Some
Slack": Latency-Aware Live Migration for Databases' (EDBT 2012).

The package layers, bottom-up:

* :mod:`repro.simulation` — a process-based discrete-event kernel;
* :mod:`repro.resources` — disk/CPU/network/server hardware models;
* :mod:`repro.db` — an InnoDB-like tenant engine with hot backup;
* :mod:`repro.workload` — the transactional YCSB-style benchmark;
* :mod:`repro.control` — PID controllers and tuning;
* :mod:`repro.migration` — throttle, slack model, stop-and-copy and
  live migration, and the PID-driven dynamic throttle;
* :mod:`repro.middleware` — tenant management, wire protocol, nodes,
  frontend, and cluster orchestration;
* :mod:`repro.core` — configuration presets, SLAs, and the
  :class:`~repro.core.slacker.Slacker` facade;
* :mod:`repro.experiments` — drivers regenerating every figure of the
  paper's evaluation;
* :mod:`repro.analysis` — summary statistics and result tables.

Quickstart::

    from repro import Slacker, EVALUATION

    slacker = Slacker(EVALUATION, nodes=["db-01", "db-02"])
    slacker.add_tenant(1, node="db-01", workload=True)
    slacker.advance(20.0)                       # warm up
    result = slacker.migrate(1, "db-02", setpoint=1.0)
    print(result.duration, result.downtime)
"""

from importlib import import_module
from types import MappingProxyType

__version__ = "1.0.0"


def _lazy_exports(namespace: dict, exports: MappingProxyType) -> tuple:
    """A package's PEP 562 ``__getattr__`` and ``__dir__``.

    Every package on a run path declares its public names once, in an
    immutable table ``_EXPORTS`` from each name to the relative module
    that defines it, and derives ``__all__`` from it::

        _EXPORTS = MappingProxyType({"Environment": ".core", ...})
        __getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
        __all__ = tuple(_EXPORTS)

    Importing the package then runs none of its submodules.  The first
    access of a name (an attribute read, a ``from`` import or ``import
    *``) imports its module and stores the name in the package
    (``namespace`` is the package's ``globals()``), so later accesses
    never reach ``__getattr__``.  slackerlint's project graph reads the
    same table to chase re-exports to their defining module, so it
    stays a dict literal of string constants.
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


#: Public name -> the submodule that defines it.
_EXPORTS = MappingProxyType(
    {
        "CASE_STUDY": ".core.config",
        "EVALUATION": ".core.config",
        "ExperimentConfig": ".core.config",
        "FluidMigration": ".migration.fluid",
        "LatencySla": ".core.sla",
        "MigrationPhase": ".migration.fluid",
        "MigrationResult": ".migration.result",
        "Slacker": ".core.slacker",
        "SlaMonitor": ".core.sla",
        "TenantConfig": ".core.config",
        "Throttle": ".migration.throttle",
        "WorkloadConfig": ".core.config",
    }
)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
__all__ = (*_EXPORTS, "__version__")
