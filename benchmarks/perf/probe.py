"""Time one workload's set-up in a fresh interpreter.

    python3 benchmarks/perf/probe.py pid-1g 42

Set-up runs from this file's first line, before ``repro`` is imported,
to the first ``Environment.run`` of the workload's first unit: imports,
building the units, and building the first unit's cluster.  Prints the
normalised seconds (see :mod:`benchmarks.perf.reference`).
"""

import time

_ENTRY = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from benchmarks.perf.reference import HostClock  # noqa: E402


class _SetupDone(Exception):
    """Raised at the first ``Environment.run``."""


def _stop(env, until=None):
    raise _SetupDone


def main(name: str, seed: int) -> int:
    clock = HostClock(since=_ENTRY)
    with clock:
        from repro.simulation.core import Environment

        from benchmarks.perf import units, workloads

        points = workloads.build(name, seed)
        Environment.run = _stop
        try:
            with units.Capture() as capture:
                units.run_unit(points[0], capture)
        except _SetupDone:
            seconds, _, _ = clock.read()
        else:
            raise RuntimeError("the first unit never reached Environment.run")
    print(repr(seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
