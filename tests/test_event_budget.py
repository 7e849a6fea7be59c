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

Re-pinned when queue and bucket gets that can be met at once continued
in place and the throttle's wake-up became a callback.  Each in-place
get moves one event from ``processed_events`` to ``inline_grants``
(fig5 32, on-demand 2,700, fluid 48, chaos 34, fleet drain 7: the
client workers' ``Store.get``, the snapshot pipeline's slot and piece
gets, and the throttle's bucket gets).  The throttle no longer starts a
process per blocked piece, so the sum of the three counts fell by
exactly that process's start and exit events and the interrupts a rate
change threw into it, counted at the parent: fig5 31 + 31 = 62, fluid
30 + 30 = 60, chaos 31 + 31 + 27 = 89, fleet drain 4 + 4 + 7 = 15, and
on-demand (which throttles no stream) none.  With those events gone, a
few more services end before the next event and run in place
(``inline_holds`` fig5 +12, fluid +6, chaos +1).  The kernel calls fell
with the events (fig5 9,828 to 9,326, on-demand 101,072 to 92,972, fluid
11,062 to 10,540, chaos 46,261 to 45,579, fleet drain 9,406 to 9,287),
and the resource models' with the in-place services (fig5 7,626 to
7,602, fluid 7,301 to 7,289, chaos 32,461 to 32,459).

Re-pinned when every bus carried a retry policy, every accept raced
its timeout and placement ran only waves; every trajectory stayed the
same.  A send on the fail-fast bus ran its delivery inline; now each
send costs one delivery process (its start and exit events), one
deadline timeout and one ``any_of``: four events and 25 kernel calls.
The accept race costs one timeout and one ``any_of``: two events and 14
kernel calls.  Building the cluster's jitter stream costs two kernel
calls (``RandomStreams.stream`` and ``derive_seed``).

* fig5 and on-demand: 3 sends and one accept race, +14 events (965 to
  979, 8,310 to 8,324) and 3 x 25 + 14 + 2 = 91 kernel calls (9,326 to
  9,417, 92,972 to 93,063).
* fluid: 19 sends (16 of them ``ChunkHandover``) and one accept race,
  +78 events.  One page-in read that used to end before the next event
  now has a deadline ahead of its end and waits as an event:
  ``processed_events`` +79 (1,173 to 1,252), ``inline_holds`` -1
  (1,211 to 1,210).  Kernel calls 19 x 25 + 14 + 2 = 491, plus 3 for
  that read's event (``_schedule``, ``_resume``, ``release``): 10,540 to
  11,034.  The same read adds two ``disk._wait`` calls to the resource
  models (7,289 to 7,291) and one ``_page_in`` resume to the database
  engine (5,669 to 5,670).
* chaos: the bus was already hardened.  The proposal now runs in the
  executor's ``_run_one`` process, which costs what
  ``execute_serial``'s process did, and ``settle`` adds one ``all_of``:
  +1 event (5,037 to 5,038) and 10 kernel calls, less one
  ``Environment.now`` read, +9 (45,579 to 45,588).  Generated
  ``__init__`` calls fell from 963 to 962: the fuzzer no longer builds a
  ``RetryPolicy``, the bus's default instance is built once at import.
* fleet drain: 9 sends and 3 accept races, +42 events, of which the
  last accept deadline is still pending when the drain returns: +41 in
  the sum.  Two wire holds no longer end before the next event:
  ``processed_events`` +43 (605 to 648), ``inline_holds`` -2 (1,959 to
  1,957).  Kernel calls 9 x 25 + 3 x 14 + 2 = 269, less the pending
  deadline's ``_check`` and ``triggered``, plus 5 for the two holds as
  events (``_resume`` and ``timeout`` twice, ``_horizon`` once): 9,287
  to 9,559.  The resource models gained 4 (``_propagate`` 3, ``_send``
  1): 7,351 to 7,355.

Re-pinned when snapshot pieces stopped being processes: each piece's
source read, wire transfer and target write are continuation-form
services whose continuations are one stream object's methods, and a
FIFO target writer replaces the consumer process and its queue.  Every
trajectory stayed the same.  With ``p`` pieces and ``c`` chunks
(fig5 and chaos 31 and 1, fluid 32 and 16, fleet drain 4 and 3, over
its three migrations; on-demand streams none), the sum of the three
counts fell by exactly ``2p + 2c`` (fig5 64, fluid 96, chaos 64, fleet
drain 14): each piece's process start and exit, and each chunk's
consumer start and exit and its ``all_of``, less the one event the
producer now waits on for the chunk's last write.  The consumer's
``p + c`` queue gets (one per piece, one for the end of the stream)
became as many hand-offs to the writer, each taken in place, and
counted in ``inline_grants``, only when the get's event would have
been the next one processed (``Environment._hand_off``); at every
point each one was.

* ``inline_holds`` fell by the stream's services that used to end
  before the next event and now always end in an event (fig5 56: 12
  reads, 13 serializations, 31 propagations; fluid 47: 8, 10, 29;
  chaos 30: 1, 2, 27; fleet drain 7: 1, 2, 4).  Every other hold is
  unchanged.
* ``inline_grants`` gained the ``p + c`` hand-offs and lost the
  consumer's gets that were met in place (fig5 32 - 1 = +31, chaos
  32 - 1 = +31, fleet drain 7 - 3 = +4); in the fluid point two
  throttle gets are also met in place now, no process start being
  due at ``now``: 48 - 16 + 2 = +34.
* ``processed_events`` is the rest: fig5 -62 - 2 - 1 - 31 + 1 + 56 =
  -39; fluid -64 - 32 - 16 - 32 + 16 + 47 - 2 = -83; chaos -62 - 2 - 1
  - 31 + 1 + 30 = -65; fleet drain -8 - 6 - 3 - 4 + 3 + 7 = -11 (piece
  starts and exits, consumer starts and exits, ``all_of``s, gets that
  were events, the producer's last wait, holds now events, throttle
  gets now in place).

Kernel calls fell with the events and the processes (fig5 9,417 to
8,798, fluid 11,034 to 10,019, chaos 45,588 to 44,908, fleet drain
9,559 to 9,411): no ``process``, ``_Initialize``, ``is_alive``, queue
put or get, or ``_resume`` per piece; ``timeout`` once per propagation
that used to pass in place; ``_hand_off`` and ``_horizon`` once per
hand-off.  The resource models' calls rose (fig5 7,602 to 8,202,
on-demand 83,436 to 90,658, fluid 7,291 to 7,870, chaos 32,459 to
34,732, fleet drain 7,355 to 7,534): ``Disk._wait`` and
``NetworkLink._send`` now end through the models' one finish step
(``_finish``), one call per access or send that did not run in place,
tenant and stream alike (on-demand's whole +7,222); per piece the
stream adds ``Disk._done`` twice and ``NetworkLink._sent``,
``_arrived`` and ``_arrive`` once, while its reads, writes and sends
no longer resume ``_wait``/``_send``/``_propagate`` generators.  The
database engine's calls and the generated ``__init__``s are unchanged.
"""

from __future__ import annotations

import cProfile
import gc
import sys
from collections import Counter

import pytest

from repro.core.config import CASE_STUDY, EVALUATION
from repro.experiments import harness as harness_mod
from repro.experiments.chaos_fuzz import fuzz_point
from repro.experiments.common import scaled_config
from repro.experiments.fleet_sweep import fleet_point
from repro.experiments.harness import MigrationSpec
from repro.middleware import cluster as cluster_mod
from repro.middleware.transport import MessageBus
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


#: Built outside the profiled points, which pin only the run's calls.
FIG5_CONFIG, FIG5_SPEC = _fig5_config()
ON_DEMAND_SPEC = MigrationSpec.on_demand(mb_per_sec(8))
FLUID_SPEC = MigrationSpec.fluid(mb_per_sec(8))


def _fig5_point(spec=FIG5_SPEC):
    return single_tenant_point(FIG5_CONFIG, spec, warmup=2.0, cooldown=1.0)


def _on_demand_point():
    return _fig5_point(ON_DEMAND_SPEC)


def _fluid_point():
    return _fig5_point(FLUID_SPEC)


def _fleet_drain_point():
    return fleet_point(
        scaled_config(EVALUATION, 0.125, 11),
        MigrationSpec.dynamic(1.0),
        label="drain",
        scenario="drain",
        nodes=4,
        tenants=12,
        warmup=10.0,
        run_limit=400.0,
    )


def test_fig5_throttle_point():
    counts = _harness_counts(
        _fig5_point, layer_calls=(8798, 8202, 7136), generated_inits=121
    )
    assert counts == (940, 1915, 1227)


def test_on_demand_point():
    """Every transaction on the cold target runs ``PartialReplicaEngine._access_page``."""
    counts = _harness_counts(
        _on_demand_point, layer_calls=(93063, 90658, 43248), generated_inits=405
    )
    assert counts == (8324, 21656, 15304)


def test_fluid_point():
    """Transactions during the migration run through the ``FluidRouter``."""
    counts = _harness_counts(
        _fluid_point, layer_calls=(10019, 7870, 5670), generated_inits=198
    )
    assert counts == (1169, 1823, 1163)


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
        layer_calls=(44908, 34732, 30739),
        generated_inits=962,
    )
    assert counts == (4973, 8285, 6052)


def test_fleet_drain_point():
    record = _unobserved(
        _fleet_drain_point, layer_calls=(9411, 7534, 8603), generated_inits=373
    )
    assert record.ok
    counts = (record.events, record.inline, record.held)
    assert counts == (637, 2150, 1950)


@pytest.mark.parametrize(
    "point", [_fig5_point, _on_demand_point, _fluid_point, _fleet_drain_point]
)
def test_fault_free_point_never_retries(point, monkeypatch):
    """With no faults attached, no send retries, times out or fails.

    Every send races its delivery against the retry policy's 0.5 s
    per-attempt timeout.  Under the migration stream's NIC load the
    first attempt still always lands in time, so on a fault-free run
    the retry path adds events (see above) and nothing else.
    """
    buses = []

    class Recorded(MessageBus):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            buses.append(self)

    monkeypatch.setattr(cluster_mod, "MessageBus", Recorded)
    point()
    (bus,) = buses
    assert bus.faults is None
    assert bus.messages_delivered > 0
    assert (
        bus.send_retries,
        bus.send_timeouts,
        bus.send_failures,
        bus.send_interrupted,
    ) == (0, 0, 0, 0)
