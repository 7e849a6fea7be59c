"""``python -m benchmarks.perf run|compare`` (see :mod:`benchmarks.perf.suite`)."""

import sys

from benchmarks.perf.suite import main

if __name__ == "__main__":
    sys.exit(main())
