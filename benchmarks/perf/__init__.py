"""The repository benchmark: pinned migration workloads, end-to-end and per layer.

See ``benchmarks/perf/README.md`` and ``BENCHMARK.json`` at the root.
"""
