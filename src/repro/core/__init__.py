"""Core public API: configuration presets, SLAs, and the Slacker facade."""

from types import MappingProxyType

from .. import _lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = MappingProxyType(
    {
        "CASE_STUDY": ".config",
        "ConfigFileError": ".configfile",
        "EVALUATION": ".config",
        "ExperimentConfig": ".config",
        "LatencySla": ".sla",
        "Slacker": ".slacker",
        "SlaMonitor": ".sla",
        "SlaWindowReport": ".sla",
        "TenantConfig": ".config",
        "WorkloadConfig": ".config",
        "config_from_dict": ".configfile",
        "load_config": ".configfile",
    }
)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
__all__ = tuple(_EXPORTS)
