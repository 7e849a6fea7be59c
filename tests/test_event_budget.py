"""Pinned kernel event counts for one point of each experiment family.

Event counts are deterministic: the same seed processes the same
events, grants the same resources in place and holds the same bursts
in place on every host.  So they are pinned exactly, and a change that
adds kernel events to a fig5, on-demand, fluid, chaos-fuzz or
fleet-drain point fails here instead of going unnoticed in a wall-clock
benchmark.

The sum of the three counts is what the same trajectory costs when
every grant and every hold is an event, so it moves only when the
trajectory itself does; the split moves when the kernel gets cheaper.

A change that removes events on purpose updates these numbers and says
so in CHANGES.md.

Every point runs under cProfile with observability off, and no function
under ``repro/obs/`` may run: the obs layer's "zero cost when off" is
checked by count here, not by timing.  The same profile gives the
calls made into the kernel (``repro/simulation/``), the resource
models (``repro/resources/``) and the database engine (``repro/db/``);
cProfile counts each generator resume as a call.  The totals are pinned
exactly: they depend only on the code in this repository, so a change
that makes a layer busier fails here even when the event counts hold.

It also pins the calls to dataclass-generated ``__init__``s.  Their code
is compiled from text, so every one is ``('<string>', line, '__init__')``
and pstats keeps only one of them per label: they are summed over the
profiler's raw entries instead.  A record built once per operation (a
buffer-pool miss, a binlog write) is a named tuple, and turning one back
into a dataclass fails here.

Re-pinned when a service that cannot finish in place started at its
grant (``Resource.serve``): a queued or served CPU burst, disk access
or wire hold costs one completion event and one counted in-place
grant where it cost a grant event and a hold, so ``processed_events``
fell by 38-45 % on the fig5, on-demand, fluid and chaos points and by
22 % on the fleet drain, and every sum stayed equal.

The fluid point alone was re-pinned when live migration became the
one-chunk case of the chunk pipeline: each chunk now copies through
live's pipelined snapshot (a spawned process per piece, a bounded
buffer) and runs a spawned prepare and final delta, so its trajectory
moved and its events rose from 979 to 1,287.

The generated-``__init__`` counts were pinned once ``AccessResult`` and
``LogRecord`` became named tuples: they fell from 987 to 121 (fig5),
3,846 to 405 (on-demand), 1,058 to 198 (fluid), 4,294 to 963 (chaos)
and 1,345 to 373 (fleet drain), with every other count unchanged.

The kernel call counts fell once the binlog kept only its head LSN: an
append no longer takes the write's time, so each binlog write reads
``Environment.now`` once less.  At every point the kernel total fell by
exactly the number of appends (129 fig5, 560 on-demand, 127 fluid, 532
chaos, 183 fleet drain), all of it in ``Environment.now``; the event
counts and every other pin are unchanged.
"""

from __future__ import annotations

import cProfile
import gc
import sys
from collections import Counter

from repro.core.config import CASE_STUDY, EVALUATION
from repro.experiments import harness as harness_mod
from repro.experiments.chaos_fuzz import fuzz_point
from repro.experiments.common import scaled_config
from repro.experiments.fleet_sweep import fleet_point
from repro.experiments.harness import MigrationSpec
from repro.parallel.tasks import single_tenant_point
from repro.resources.units import mb_per_sec
from repro.simulation import Environment


def _counts(env):
    return env.processed_events, env.inline_grants, env.inline_holds


#: The layers whose call counts are pinned, as path fragments.
PINNED_LAYERS = ("simulation", "resources", "db")
#: Python 3.12 inlines these comprehensions (PEP 709), so they are
#: calls only on older interpreters; they are left out of the counts.
INLINED = ("<listcomp>", "<dictcomp>", "<setcomp>")


def _generated_init_owners():
    """Map each dataclass-generated ``__init__`` code object in ``repro`` to its class."""
    owners = {}
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for value in vars(module).values():
            if isinstance(value, type):
                code = getattr(value.__dict__.get("__init__"), "__code__", None)
                if code is not None:
                    owners[code] = value.__qualname__
    return owners


def _unobserved(point, layer_calls, generated_inits):
    """Run ``point()`` under cProfile; fail if any ``repro/obs`` function ran.

    Also fail unless the calls made into each of :data:`PINNED_LAYERS`
    equal ``layer_calls`` (a tuple in that order), and the calls to
    dataclass-generated ``__init__``s equal ``generated_inits``.
    """
    # A process left suspended is in a reference cycle, and its
    # generator runs its ``finally`` blocks when the cycle collector
    # reaches it: collect the earlier runs' now, and none during this one.
    gc.collect()
    gc.disable()
    try:
        profile = cProfile.Profile()
        result = profile.runcall(point)
    finally:
        gc.enable()
    ran = []
    per_function = {layer: Counter() for layer in PINNED_LAYERS}
    inits = Counter()
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):  # a built-in function
            continue
        path = code.co_filename.replace("\\", "/")
        line, name = code.co_firstlineno, code.co_name
        if "/repro/obs/" in path:
            ran.append(f"{name} ({path}:{line})")
        if path == "<string>" and name == "__init__":
            inits[code] += entry.callcount
        if name in INLINED:
            continue
        for layer in PINNED_LAYERS:
            if f"/repro/{layer}/" in path:
                key = f"{path.rsplit('/', 1)[1]}:{line}({name})"
                per_function[layer][key] += entry.callcount
    assert not ran, f"observability is off, yet obs code ran: {sorted(ran)}"
    counted = tuple(sum(per_function[layer].values()) for layer in PINNED_LAYERS)
    assert counted == layer_calls, (counted, per_function)
    if sum(inits.values()) != generated_inits:
        owners = _generated_init_owners()
        per_class = Counter()
        for code, calls in inits.items():
            per_class[owners.get(code, "?")] += calls
        raise AssertionError((sum(inits.values()), per_class.most_common()))
    return result


def _harness_counts(point, layer_calls, generated_inits):
    """Run ``point()`` and return the event counts of the env it built."""
    made = []

    class Recorded(Environment):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    original = harness_mod.Environment
    harness_mod.Environment = Recorded
    try:
        _unobserved(point, layer_calls, generated_inits)
    finally:
        harness_mod.Environment = original
    (env,) = made
    return _counts(env)


def _fig5_config():
    return scaled_config(CASE_STUDY, 0.06, None), MigrationSpec.fixed(mb_per_sec(8))


def test_fig5_throttle_point():
    cfg, spec = _fig5_config()
    counts = _harness_counts(
        lambda: single_tenant_point(cfg, spec, warmup=2.0, cooldown=1.0),
        layer_calls=(9828, 7626, 7136),
        generated_inits=121,
    )
    assert counts == (1071, 1852, 1271)


def test_on_demand_point():
    """Every transaction on the cold target runs ``PartialReplicaEngine._access_page``."""
    cfg, _ = _fig5_config()
    spec = MigrationSpec.on_demand(mb_per_sec(8))
    counts = _harness_counts(
        lambda: single_tenant_point(cfg, spec, warmup=2.0, cooldown=1.0),
        layer_calls=(101072, 83436, 43248),
        generated_inits=405,
    )
    assert counts == (11010, 18956, 15304)


def test_fluid_point():
    """Transactions during the migration run through the ``FluidRouter``."""
    cfg, _ = _fig5_config()
    spec = MigrationSpec.fluid(mb_per_sec(8))
    counts = _harness_counts(
        lambda: single_tenant_point(cfg, spec, warmup=2.0, cooldown=1.0),
        layer_calls=(11062, 7301, 5669),
        generated_inits=198,
    )
    assert counts == (1287, 1741, 1205)


def test_chaos_fault_injection_point():
    cfg, _ = _fig5_config()
    counts = _harness_counts(
        lambda: fuzz_point(
            cfg,
            label="drop-20",
            messages={"drop_prob": 0.20, "dup_prob": 0.05},
            warmup=2.0,
            run_limit=120.0,
        ),
        layer_calls=(46261, 32461, 30739),
        generated_inits=963,
    )
    assert counts == (5161, 8220, 6081)


def test_fleet_drain_point():
    record = _unobserved(
        lambda: fleet_point(
            scaled_config(EVALUATION, 0.125, 11),
            MigrationSpec.dynamic(1.0),
            label="drain",
            scenario="drain",
            nodes=4,
            tenants=12,
            warmup=10.0,
            run_limit=400.0,
        ),
        layer_calls=(9406, 7351, 8603),
        generated_inits=373,
    )
    assert record.ok
    counts = (record.events, record.inline, record.held)
    assert counts == (627, 2139, 1959)
