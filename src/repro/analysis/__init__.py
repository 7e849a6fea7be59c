"""Analysis utilities: summary statistics and paper-style text tables."""

from types import MappingProxyType

from .. import _lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = MappingProxyType(
    {
        "ConfidenceInterval": ".compare",
        "LatencySummary": ".stats",
        "MannWhitneyResult": ".compare",
        "bootstrap_difference": ".compare",
        "bootstrap_mean_ci": ".compare",
        "mann_whitney_u": ".compare",
        "Table": ".report",
        "ascii_chart": ".plot",
        "coefficient_of_variation": ".stats",
        "format_ms": ".report",
        "format_rate": ".report",
        "format_seconds": ".report",
        "is_diverging": ".stats",
        "outcome_to_dict": ".export",
        "series_to_csv": ".export",
        "sparkline": ".plot",
        "summarize": ".stats",
        "table_to_csv": ".export",
        "trend_slope": ".stats",
        "write_csv": ".export",
        "write_json": ".export",
    }
)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
__all__ = tuple(_EXPORTS)
