"""YCSB-style transactional benchmark (the paper's modified YCSB).

Key distributions, operation mixes, transaction factories, open
(Poisson) and closed arrival processes, and MPL-limited clients.
"""

from types import MappingProxyType

from .. import _lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = MappingProxyType(
    {
        "ArrivalProcess": ".generator",
        "BenchmarkClient": ".client",
        "BurstModulator": ".generator",
        "ClientStats": ".client",
        "ClosedBenchmarkClient": ".client",
        "DEFAULT_MPL": ".client",
        "DEFAULT_OPS_PER_TXN": ".generator",
        "FixedIntervalArrivals": ".generator",
        "HotspotChooser": ".distributions",
        "KeyChooser": ".distributions",
        "MarkovModulatedArrivals": ".generator",
        "LatestChooser": ".distributions",
        "OperationMix": ".mix",
        "PoissonArrivals": ".generator",
        "RecordingArrivals": ".replay",
        "ReplayArrivals": ".replay",
        "SLACKER_MIX": ".mix",
        "TransactionFactory": ".generator",
        "UniformChooser": ".distributions",
        "YCSB_A": ".mix",
        "YCSB_B": ".mix",
        "YCSB_C": ".mix",
        "YCSB_D": ".mix",
        "YCSB_E": ".mix",
        "YCSB_F": ".mix",
        "ZipfianChooser": ".distributions",
        "load_trace": ".replay",
        "save_trace": ".replay",
    }
)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
__all__ = tuple(_EXPORTS)
