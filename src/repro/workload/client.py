"""The benchmark client: MPL-limited execution of arriving transactions.

Mirrors the paper's harness (Section 5.1.2): transactions arrive from
an open Poisson process, a fixed multiprogramming level (MPL 10) of
client threads executes them against the tenant database, and arrivals
that find no free thread queue FIFO.  "The latency of a transaction is
simply the sum of the time spent in queue and the transaction execution
time" — which is exactly what :class:`BenchmarkClient` records.

A closed-mode client (each virtual user issues its next transaction
when the previous completes, plus think time) is included for the
open-vs-closed ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..db.engine import DatabaseEngine
from ..simulation import Environment, Store, Trace
from .generator import ArrivalProcess, TransactionFactory

__all__ = ["ClientStats", "BenchmarkClient", "ClosedBenchmarkClient"]

#: Paper default multiprogramming level.
DEFAULT_MPL = 10


def _resolve_engine(target):
    """Resolve what to execute transactions against.

    Accepts a :class:`DatabaseEngine`, anything with an ``engine``
    attribute (a middleware ``Tenant``), or any duck-typed object with
    a single-argument ``execute`` generator (the fluid migration's
    router).  Resolving per transaction means clients automatically
    follow a tenant across a migration handover, like applications
    receiving the frontend's location updates.
    """
    if isinstance(target, DatabaseEngine):
        return target
    engine = getattr(target, "engine", None)
    if isinstance(engine, DatabaseEngine):
        return engine
    # A duck-typed executor installed as a tenant's engine — e.g. the
    # fluid migration's dual-resident router — is followed the same way.
    if engine is not None and callable(getattr(engine, "execute", None)):
        return engine
    if callable(getattr(target, "execute", None)):
        return target
    raise TypeError(f"{target!r} is neither an engine nor a tenant")


@dataclass
class ClientStats:
    """Running counters for one benchmark client."""

    arrived: int = 0
    completed: int = 0
    peak_queue_length: int = 0

    @property
    def in_system(self) -> int:
        """Transactions arrived but not yet completed."""
        return self.arrived - self.completed


class BenchmarkClient:
    """Open-workload client: Poisson arrivals, MPL worker threads."""

    def __init__(
        self,
        env: Environment,
        engine: DatabaseEngine,
        factory: TransactionFactory,
        arrivals: ArrivalProcess,
        mpl: int = DEFAULT_MPL,
        trace: Optional[Trace] = None,
        series: str = "latency",
    ):
        if mpl <= 0:
            raise ValueError(f"mpl must be positive, got {mpl}")
        self.env = env
        self.engine = engine
        self.factory = factory
        self.arrivals = arrivals
        self.mpl = mpl
        self.trace = trace if trace is not None else Trace()
        self.series = series
        self.stats = ClientStats()
        self._queue = Store(env)
        self._running = False

    @property
    def latencies(self):
        """The recorded latency series (seconds, indexed by finish time)."""
        return self.trace.series(self.series)

    @property
    def queue_length(self) -> int:
        """Transactions waiting for a free client thread."""
        return len(self._queue.items)

    def start(self) -> None:
        """Spawn the arrival process and the MPL worker threads."""
        if self._running:
            raise RuntimeError("client already started")
        self._running = True
        self.env.process(self._arrival_loop())
        for _ in range(self.mpl):
            self.env.process(self._worker_loop())

    def stop(self) -> None:
        """Stop generating new arrivals (in-flight work completes)."""
        self._running = False

    def _arrival_loop(self):
        # Hottest loop in every experiment: one iteration per arriving
        # transaction.  Bind the per-arrival call chain once; the gap
        # draws themselves come from the arrival process's pre-generated
        # batches (see PoissonArrivals.next_interarrival).
        env = self.env
        timeout = env.timeout
        next_interarrival = self.arrivals.next_interarrival
        build = self.factory.build
        stats = self.stats
        put = self._queue.put
        while self._running:
            yield timeout(next_interarrival())
            if not self._running:
                break
            txn = build(arrived_at=env.now)
            stats.arrived += 1
            put(txn)
            queued = self.queue_length
            if queued > stats.peak_queue_length:
                stats.peak_queue_length = queued

    def _worker_loop(self):
        while True:
            txn = yield self._queue.get()
            engine = _resolve_engine(self.engine)
            # Inline rather than a child Process: the same trajectory,
            # without a start event and a completion event per txn.
            yield from engine.execute(txn)
            self.stats.completed += 1
            self.trace.record(self.series, self.env.now, txn.latency)


class ClosedBenchmarkClient:
    """Closed-workload client: MPL virtual users, optional think time.

    Used only by the open-vs-closed ablation — the paper argues (via
    Schroeder et al.) that closed generators mask overload because
    "a new query arrives each time one completes".
    """

    def __init__(
        self,
        env: Environment,
        engine: DatabaseEngine,
        factory: TransactionFactory,
        mpl: int = DEFAULT_MPL,
        think_time: float = 0.0,
        trace: Optional[Trace] = None,
        series: str = "latency",
    ):
        if mpl <= 0:
            raise ValueError(f"mpl must be positive, got {mpl}")
        if think_time < 0:
            raise ValueError(f"think_time must be >= 0, got {think_time}")
        self.env = env
        self.engine = engine
        self.factory = factory
        self.mpl = mpl
        self.think_time = think_time
        self.trace = trace if trace is not None else Trace()
        self.series = series
        self.stats = ClientStats()
        self._running = False

    @property
    def latencies(self):
        """The recorded latency series (seconds, indexed by finish time)."""
        return self.trace.series(self.series)

    def start(self) -> None:
        """Spawn the MPL virtual users."""
        if self._running:
            raise RuntimeError("client already started")
        self._running = True
        for _ in range(self.mpl):
            self.env.process(self._user_loop())

    def stop(self) -> None:
        """Stop users after their current transaction."""
        self._running = False

    def _user_loop(self):
        while self._running:
            txn = self.factory.build(arrived_at=self.env.now)
            self.stats.arrived += 1
            engine = _resolve_engine(self.engine)
            yield from engine.execute(txn)
            self.stats.completed += 1
            self.trace.record(self.series, self.env.now, txn.latency)
            if self.think_time > 0:
                yield self.env.timeout(self.think_time)
