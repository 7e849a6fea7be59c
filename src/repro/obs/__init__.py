"""Observability layer: deterministic metrics + sim-time span tracing.

See ``docs/OBSERVABILITY.md``.  The public surface:

* :class:`MetricsRegistry` / :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` — wall-clock-free instruments;
* :class:`Tracer` — sim-time spans and events, JSONL output;
* :class:`Observability` — the pre-bound runtime the hot layers hook
  (``attach(cluster)``), zero-cost when absent;
* :class:`RunReport` — the portable per-run artifact, summarized by
  ``python -m repro.obs summarize``.
"""

from types import MappingProxyType

from .. import _lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = MappingProxyType(
    {
        "Counter": ".metrics",
        "Gauge": ".metrics",
        "Histogram": ".metrics",
        "MetricsRegistry": ".metrics",
        "Observability": ".runtime",
        "RunReport": ".report",
        "Span": ".tracer",
        "Tracer": ".tracer",
        "config_fingerprint": ".report",
        "read_jsonl": ".tracer",
    }
)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
__all__ = tuple(_EXPORTS)
