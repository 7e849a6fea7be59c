"""Transaction factories and arrival processes.

Two halves of the benchmark's load model:

* :class:`TransactionFactory` builds the paper's 10-operation
  transactions from an operation mix and a key chooser.
* Arrival processes decide *when* transactions arrive.  The paper
  replaces YCSB's closed generator with an **open** one: "we instead
  generate queries according to a Poisson distribution ... By adjusting
  λ, we control the query arrival rate" (Section 5.1.2, citing
  Schroeder et al.'s open-vs-closed cautionary tale).  The open
  generator is what lets latency grow without bound when slack is
  exceeded (Figure 6); a closed generator would self-throttle.  Both
  are provided, and the ablation bench contrasts them.

:class:`PoissonArrivals` supports changing the rate mid-run, which the
Figure 13a experiment uses (+40 % arrival rate at t = 60 s).
"""

from __future__ import annotations

import itertools
import random
from math import log as _log
from typing import Optional, Protocol

from ..db.pages import TableLayout
from ..db.transactions import Operation, Transaction
from .distributions import KeyChooser
from .mix import OperationMix, SLACKER_MIX

__all__ = [
    "TransactionFactory",
    "ArrivalProcess",
    "BurstModulator",
    "PoissonArrivals",
    "MarkovModulatedArrivals",
    "FixedIntervalArrivals",
]

#: Paper default: "10-operation transactions".
DEFAULT_OPS_PER_TXN = 10

#: YCSB workload-E style scan lengths.
DEFAULT_MAX_SCAN_LENGTH = 100


class TransactionFactory:
    """Builds transactions from a mix and a key chooser."""

    def __init__(
        self,
        layout: TableLayout,
        chooser: KeyChooser,
        rng: random.Random,
        mix: OperationMix = SLACKER_MIX,
        ops_per_txn: int = DEFAULT_OPS_PER_TXN,
        max_scan_length: int = DEFAULT_MAX_SCAN_LENGTH,
    ):
        if ops_per_txn <= 0:
            raise ValueError(f"ops_per_txn must be positive, got {ops_per_txn}")
        if max_scan_length <= 0:
            raise ValueError(
                f"max_scan_length must be positive, got {max_scan_length}"
            )
        self.layout = layout
        self.chooser = chooser
        self.rng = rng
        self.mix = mix
        self.ops_per_txn = ops_per_txn
        self.max_scan_length = max_scan_length
        self._ids = itertools.count(1)

    def build_operation(self) -> Operation:
        """Draw one operation from the mix."""
        op_type = self.mix.sample(self.rng)
        key = self.chooser.choose() % self.layout.num_rows
        if op_type.is_scan:
            length = self.rng.randint(1, self.max_scan_length)
            length = min(length, self.layout.num_rows - key)
            return Operation(op_type, key, max(1, length))
        return Operation(op_type, key)

    def build(self, arrived_at: Optional[float] = None) -> Transaction:
        """Build one transaction of ``ops_per_txn`` operations."""
        build_operation = self.build_operation
        operations = [build_operation() for _ in range(self.ops_per_txn)]
        return Transaction(next(self._ids), operations, arrived_at=arrived_at)


class ArrivalProcess(Protocol):
    """Anything that can produce the next inter-arrival gap."""

    def next_interarrival(self) -> float:
        """Seconds until the next transaction arrives."""
        ...  # pragma: no cover


class PoissonArrivals:
    """Open, Poisson arrivals at ``rate`` transactions/second.

    The rate can be changed while the simulation runs; the change
    takes effect from the next draw.

    Draws are batched: ``expovariate(rate)`` is ``-log(1 - U) / rate``,
    whose numerator does not depend on the rate, so the generator
    pre-computes numerators a block at a time (amortizing the per-draw
    method-call overhead on the workload hot path) and divides by the
    *current* rate at use.  The underlying uniform stream is consumed
    in exactly the order and count of per-call ``expovariate``, and
    ``(-log(1-U)) / rate`` is bit-identical to CPython's
    ``-(log(1-U) / rate)``, so interarrival sequences are unchanged —
    under any mid-run ``set_rate`` schedule.  This requires the ``rng``
    to be exclusively this process's stream (true for the per-tenant
    ``<tag>:arrivals`` streams the harness builds); a shared stream
    would see its draws reordered.
    """

    #: Numerators pre-drawn per refill.
    BATCH = 256

    def __init__(self, rate: float, rng: random.Random):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self._rate = rate
        self.rng = rng
        self._batch: list[float] = []
        self._next = 0

    @property
    def rate(self) -> float:
        """Current mean arrival rate, transactions/second."""
        return self._rate

    def set_rate(self, rate: float) -> None:
        """Change the arrival rate (e.g. a +40 % workload surge)."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self._rate = rate

    def scale_rate(self, factor: float) -> None:
        """Multiply the current rate by ``factor``."""
        self.set_rate(self._rate * factor)

    def next_interarrival(self) -> float:
        i = self._next
        if i >= len(self._batch):
            uniform = self.rng.random
            self._batch = [-_log(1.0 - uniform()) for _ in range(self.BATCH)]
            i = 0
        self._next = i + 1
        return self._batch[i] / self._rate


class BurstModulator:
    """A two-state (normal/burst) Markov chain advanced in simulated time.

    One modulator can drive several arrival processes: server-level
    burst causes (flash crowds hitting the whole application tier,
    checkpoint storms on the shared disk) are correlated across the
    tenants of one server, so multi-tenant experiments share a single
    modulator by default.
    """

    def __init__(
        self,
        env,
        rng: random.Random,
        mean_normal: float = 20.0,
        mean_burst: float = 5.0,
    ):
        if mean_normal <= 0 or mean_burst <= 0:
            raise ValueError("state dwell times must be positive")
        self.env = env
        self.rng = rng
        self.mean_normal = mean_normal
        self.mean_burst = mean_burst
        self._bursting = False
        self.transitions = 0
        env.process(self._run())

    @property
    def bursting(self) -> bool:
        """True while in the burst state."""
        return self._bursting

    def _run(self):
        while True:
            dwell = self.mean_burst if self._bursting else self.mean_normal
            yield self.env.timeout(self.rng.expovariate(1.0 / dwell))
            self._bursting = not self._bursting
            self.transitions += 1


class MarkovModulatedArrivals:
    """Bursty open arrivals: a two-state Markov-modulated Poisson process.

    Real tenant workloads "are rarely static, where there may be both
    long-term shifts and short-term bursts" (Section 4.1) — flash
    crowds, diurnal shifts, neighbours' activity.  This process
    alternates between a *normal* state at ``base_rate`` and a *burst*
    state at ``base_rate * burst_factor``, with exponentially
    distributed dwell times.  The bursts are what a fixed throttle
    cannot absorb and the PID controller exploits (slowing migration
    during bursts, speeding up in the lulls between them).

    ``set_rate``/``scale_rate`` adjust the base rate, preserving the
    burst structure (used by the Figure 13a +40 % surge).  Pass a
    shared :class:`BurstModulator` to correlate bursts across tenants.
    """

    def __init__(
        self,
        env,
        base_rate: float,
        rng: random.Random,
        burst_factor: float = 2.5,
        mean_normal: float = 20.0,
        mean_burst: float = 5.0,
        modulator: Optional[BurstModulator] = None,
    ):
        if base_rate <= 0:
            raise ValueError(f"base_rate must be positive, got {base_rate}")
        if burst_factor < 1:
            raise ValueError(f"burst_factor must be >= 1, got {burst_factor}")
        self.env = env
        self.rng = rng
        self.burst_factor = burst_factor
        self._base_rate = base_rate
        self.modulator = modulator or BurstModulator(
            env, rng, mean_normal=mean_normal, mean_burst=mean_burst
        )

    @property
    def rate(self) -> float:
        """Current instantaneous arrival rate, transactions/second."""
        if self.modulator.bursting:
            return self._base_rate * self.burst_factor
        return self._base_rate

    @property
    def base_rate(self) -> float:
        """The normal-state arrival rate."""
        return self._base_rate

    @property
    def mean_rate(self) -> float:
        """Long-run average arrival rate across both states."""
        normal = self.modulator.mean_normal
        burst = self.modulator.mean_burst
        weight = (normal + burst * self.burst_factor) / (normal + burst)
        return self._base_rate * weight

    @property
    def bursting(self) -> bool:
        """True while the process is in its burst state."""
        return self.modulator.bursting

    def set_rate(self, rate: float) -> None:
        """Change the base (normal-state) rate."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self._base_rate = rate

    def scale_rate(self, factor: float) -> None:
        """Multiply the base rate by ``factor``."""
        self.set_rate(self._base_rate * factor)

    def next_interarrival(self) -> float:
        return self.rng.expovariate(self.rate)


class FixedIntervalArrivals:
    """Deterministic arrivals every ``1/rate`` seconds (for tests)."""

    def __init__(self, rate: float):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self._rate = rate

    @property
    def rate(self) -> float:
        return self._rate

    def set_rate(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self._rate = rate

    def next_interarrival(self) -> float:
        return 1.0 / self._rate
