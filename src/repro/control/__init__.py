"""Control theory: PID controllers, tuning, and adaptive extensions."""

from types import MappingProxyType

from .. import _lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = MappingProxyType(
    {
        "AdaptivePidController": ".adaptive",
        "DEFAULT_TIMESTEP": ".window",
        "DEFAULT_WINDOW": ".window",
        "LatencyWindow": ".window",
        "PAPER_GAINS": ".pid",
        "PidGains": ".pid",
        "PositionalPidController": ".pid",
        "ProcessGainEstimator": ".adaptive",
        "RelayResult": ".tuning",
        "RelayTuner": ".tuning",
        "VelocityPidController": ".pid",
        "budget_setpoint": ".tuning",
        "ziegler_nichols": ".tuning",
    }
)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
__all__ = tuple(_EXPORTS)
