"""Operation mixes: which operations a transaction draws from.

The paper's primary benchmark selects each of a transaction's 10
operations "at random with 85% reads and 15% writes".  We represent a
mix as weights over :class:`~repro.db.OpType` and ship the paper's mix
plus the standard YCSB core workload mixes (A–F) for multi-tenant
scenarios.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

from ..db.transactions import OpType

__all__ = [
    "OperationMix",
    "SLACKER_MIX",
    "YCSB_A",
    "YCSB_B",
    "YCSB_C",
    "YCSB_D",
    "YCSB_E",
    "YCSB_F",
]


@dataclass(frozen=True)
class OperationMix:
    """A normalized weighting over operation types.

    >>> mix = OperationMix({OpType.SELECT: 85, OpType.UPDATE: 15})
    >>> round(mix.weight(OpType.SELECT), 2)
    0.85
    """

    weights: Mapping[OpType, float]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("mix must contain at least one operation type")
        total = sum(self.weights.values())
        if total <= 0:
            raise ValueError(f"mix weights must sum to > 0, got {total}")
        if any(w < 0 for w in self.weights.values()):
            raise ValueError("mix weights must be non-negative")
        # Store normalized weights (frozen dataclass: use object.__setattr__).
        normalized = {op: w / total for op, w in self.weights.items()}
        object.__setattr__(self, "weights", normalized)
        # The running sums sample() compares against, accumulated in
        # weight order exactly as a per-draw walk would.  Not a field:
        # equality, repr and config hashes see the weights alone.
        cumulative = []
        acc = 0.0
        for op_type, weight in normalized.items():
            acc += weight
            cumulative.append((acc, op_type))
        object.__setattr__(self, "_cumulative", tuple(cumulative))

    def weight(self, op_type: OpType) -> float:
        """Normalized probability of ``op_type`` in this mix."""
        return self.weights.get(op_type, 0.0)

    @property
    def write_fraction(self) -> float:
        """Total probability mass on write operations."""
        return sum(w for op, w in self.weights.items() if op.is_write)

    def sample(self, rng: random.Random) -> OpType:
        """Draw one operation type."""
        u = rng.random()
        for acc, op_type in self._cumulative:
            if u < acc:
                return op_type
        return self._cumulative[-1][1]  # guard against floating-point shortfall


#: The paper's primary workload: 85 % reads, 15 % writes (Section 5.1.2).
SLACKER_MIX = OperationMix({OpType.SELECT: 0.85, OpType.UPDATE: 0.15})

#: YCSB workload A — update heavy (50/50 read/update).
YCSB_A = OperationMix({OpType.SELECT: 0.50, OpType.UPDATE: 0.50})

#: YCSB workload B — read mostly (95/5).
YCSB_B = OperationMix({OpType.SELECT: 0.95, OpType.UPDATE: 0.05})

#: YCSB workload C — read only.
YCSB_C = OperationMix({OpType.SELECT: 1.0})

#: YCSB workload D — read latest (95 % read, 5 % insert).
YCSB_D = OperationMix({OpType.SELECT: 0.95, OpType.INSERT: 0.05})

#: YCSB workload E — short ranges (95 % scan, 5 % insert).
YCSB_E = OperationMix({OpType.SCAN: 0.95, OpType.INSERT: 0.05})

#: YCSB workload F — read-modify-write (50 % read, 50 % RMW as update).
YCSB_F = OperationMix({OpType.SELECT: 0.50, OpType.UPDATE: 0.50})
