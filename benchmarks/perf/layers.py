"""Split a cProfile run of ``src/repro`` across its packages (the layers).

A layer is a top-level package of ``src/repro``.  Its host time is the
self time of its own functions plus the self time of every function
outside ``src/repro`` (builtins, the standard library) that it calls,
apportioned through the pstats caller entries: a builtin called 70 %
of the time from ``db`` and 30 % from ``simulation`` gives 70 % of its
self time to ``db``.  Time whose callers lead back only to the
benchmark's own code is reported as ``outside`` and left out of the
shares, so the layer shares sum to 1.

Call counts are exact.  cProfile records a call each time a generator
is resumed, so the calls of a layer's generator functions count the
resumes of the simulation processes the layer owns, once per level of
a ``yield from`` chain.
"""

from __future__ import annotations

import inspect
import os
import pstats
from functools import lru_cache
from typing import Optional

import repro

__all__ = ["LAYERS", "OUTSIDE", "LayerSplit", "layer_of", "split"]

#: The ``src/repro`` packages a workload runs, in call-depth order.
LAYERS = (
    "simulation",
    "workload",
    "db",
    "resources",
    "migration",
    "control",
    "middleware",
    "placement",
    "faults",
    "obs",
    "experiments",
    "parallel",
)

#: Pseudo-layer for time reached only from the benchmark's own code.
OUTSIDE = "outside"

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(filename: str) -> Optional[str]:
    """The ``src/repro`` package ``filename`` belongs to, else None.

    Top-level modules of ``repro`` map to their module name, which is
    not in :data:`LAYERS`; the self-tests treat that as a gap.
    """
    path = os.path.abspath(filename)
    if not path.startswith(_REPRO_DIR):
        return None
    head = path[len(_REPRO_DIR):].split(os.sep)[0]
    return head[:-3] if head.endswith(".py") else head


@lru_cache(maxsize=None)
def _generator_lines(filename: str) -> frozenset:
    """(first line, name) of every generator function defined in a file."""
    with open(filename, encoding="utf-8") as handle:
        code = compile(handle.read(), filename, "exec")
    found = set()
    stack = [code]
    while stack:
        current = stack.pop()
        if current.co_flags & inspect.CO_GENERATOR:
            found.add((current.co_firstlineno, current.co_name))
        stack.extend(c for c in current.co_consts if inspect.iscode(c))
    return frozenset(found)


class LayerSplit:
    """Per-layer host time, calls and generator resumes of one profile."""

    def __init__(self):
        self.seconds = {layer: 0.0 for layer in LAYERS}
        self.seconds[OUTSIDE] = 0.0
        self.calls = {layer: 0 for layer in LAYERS}
        self.resumes = {layer: 0 for layer in LAYERS}
        #: ``src/repro`` functions whose package is not in LAYERS.
        self.unlayered: list[str] = []
        #: (self seconds, label, layer) of the costliest functions.
        self.top: list[tuple[float, str, str]] = []

    def self_frac(self) -> dict[str, float]:
        """Each layer's share of all host time the layers own."""
        total = sum(self.seconds[layer] for layer in LAYERS)
        return {
            layer: (self.seconds[layer] / total if total else 0.0)
            for layer in LAYERS
        }

    def outside_frac(self) -> float:
        """Share of profiled time the benchmark's own code owns."""
        total = sum(self.seconds.values())
        return self.seconds[OUTSIDE] / total if total else 0.0


def split(stats: pstats.Stats, top: int = 25) -> LayerSplit:
    """Attribute every profiled function's self time to a layer."""
    table = stats.stats  # type: ignore[attr-defined]
    result = LayerSplit()
    owners_memo: dict = {}

    def owners(func, visiting: frozenset) -> dict[str, float]:
        """Layer -> weight (summing to 1) that owns ``func``'s self time."""
        if func in owners_memo:
            return owners_memo[func]
        filename = func[0]
        layer = layer_of(filename)
        if layer is not None:
            shares = {layer: 1.0}
        else:
            callers = {
                c: edge for c, edge in table[func][4].items() if c not in visiting
            }
            weight = sum(edge[2] for edge in callers.values())
            shares = {}
            for caller, edge in callers.items():
                part = edge[2] / weight if weight else 1.0 / len(callers)
                for owner, share in owners(caller, visiting | {func}).items():
                    shares[owner] = shares.get(owner, 0.0) + part * share
            if not shares:
                shares = {OUTSIDE: 1.0}
        owners_memo[func] = shares
        return shares

    ranked = []
    for func, (_, calls, self_time, _, _) in table.items():
        shares = owners(func, frozenset())
        for owner, share in shares.items():
            if owner in result.seconds:
                result.seconds[owner] += self_time * share
            elif owner not in result.unlayered:
                result.unlayered.append(owner)
        layer = layer_of(func[0])
        if layer in result.calls:
            result.calls[layer] += calls
            if (func[1], func[2]) in _generator_lines(func[0]):
                result.resumes[layer] += calls
        label = pstats.func_std_string(func)
        if layer is not None:
            label = label.replace(_REPRO_DIR, "")
        ranked.append((self_time, label, max(shares, key=shares.get)))
    ranked.sort(reverse=True)
    result.top = ranked[:top]
    return result
