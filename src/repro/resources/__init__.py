"""Hardware resource models: disk, CPU, network links, and servers."""

from types import MappingProxyType

from .. import _lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = MappingProxyType(
    {
        "Cpu": ".cpu",
        "CpuParams": ".cpu",
        "CpuStats": ".cpu",
        "Disk": ".disk",
        "DiskParams": ".disk",
        "DiskStats": ".disk",
        "GB": ".units",
        "GIGABIT_BANDWIDTH": ".network",
        "KB": ".units",
        "MB": ".units",
        "MILLIS": ".units",
        "NetworkLink": ".network",
        "NetworkParams": ".network",
        "NetworkStats": ".network",
        "PAGE_SIZE": ".units",
        "Server": ".server",
        "ServerParams": ".server",
        "from_millis": ".units",
        "mb_per_sec": ".units",
        "to_mb": ".units",
        "to_mb_per_sec": ".units",
        "to_millis": ".units",
    }
)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
__all__ = tuple(_EXPORTS)
