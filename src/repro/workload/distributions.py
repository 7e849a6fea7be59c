"""Key-choice distributions for the YCSB-style benchmark.

YCSB selects target records via pluggable distributions; the paper's
primary workload applies operations "to random table rows" (uniform).
We implement the standard YCSB family so multi-tenant experiments can
mix access patterns:

* :class:`UniformChooser` — every row equally likely (paper default);
* :class:`ZipfianChooser` — Gray et al.'s zipfian generator with the
  YCSB hash-scramble so hot keys are spread across the keyspace;
* :class:`LatestChooser` — zipfian over recency (hot = newest);
* :class:`HotspotChooser` — a hot set absorbing a fixed fraction of
  accesses.
"""

from __future__ import annotations

import math
import random
from typing import Protocol

__all__ = [
    "KeyChooser",
    "UniformChooser",
    "ZipfianChooser",
    "LatestChooser",
    "HotspotChooser",
]

#: Standard YCSB zipfian skew constant.
ZIPFIAN_CONSTANT = 0.99

#: Knuth-style 64-bit FNV prime/offset used by YCSB's key scrambling.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1  # slackerlint: disable=SLK006 -- 64-bit hash mask, not a byte size


def fnv1a_64(value: int) -> int:
    """FNV-1a hash of an integer's 8 bytes (YCSB's key scrambler)."""
    h = _FNV_OFFSET
    for _ in range(8):
        octet = value & 0xFF
        value >>= 8
        h ^= octet
        h = (h * _FNV_PRIME) & _MASK
    return h


class KeyChooser(Protocol):
    """Anything that can pick a row key in [0, num_keys)."""

    def choose(self) -> int:
        """Return the next key."""
        ...  # pragma: no cover


class UniformChooser:
    """Uniformly random keys — the paper's primary workload."""

    def __init__(self, num_keys: int, rng: random.Random):
        if num_keys <= 0:
            raise ValueError(f"num_keys must be positive, got {num_keys}")
        self.num_keys = num_keys
        self.rng = rng
        self._bits = num_keys.bit_length()

    def choose(self) -> int:
        """``rng.randrange(num_keys)``, drawn as CPython draws it.

        ``randrange(n)`` takes ``n.bit_length()`` random bits until they
        fall below ``n``; the loop is inlined here to spare the two
        library calls per key.
        """
        num_keys = self.num_keys
        getrandbits = self.rng.getrandbits
        key = getrandbits(self._bits)
        while key >= num_keys:
            key = getrandbits(self._bits)
        return key


class ZipfianChooser:
    """YCSB's zipfian generator (Gray et al., "Quickly generating
    billion-record synthetic databases") with hash scrambling.

    Popularity rank follows a zipfian law; ranks are then scattered
    over the keyspace with FNV so that hot keys do not cluster in
    adjacent pages.
    """

    def __init__(
        self,
        num_keys: int,
        rng: random.Random,
        theta: float = ZIPFIAN_CONSTANT,
        scramble: bool = True,
    ):
        if num_keys <= 0:
            raise ValueError(f"num_keys must be positive, got {num_keys}")
        if not 0 < theta < 1:
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        self.num_keys = num_keys
        self.rng = rng
        self.theta = theta
        self.scramble = scramble
        self._alpha = 1.0 / (1.0 - theta)
        self._zetan = self._zeta(num_keys, theta)
        self._zeta2 = self._zeta(2, theta)
        denominator = 1 - self._zeta2 / self._zetan
        if denominator == 0:  # degenerate keyspace (num_keys <= 2)
            self._eta = 1.0
        else:
            self._eta = (1 - (2.0 / num_keys) ** (1 - theta)) / denominator

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i**theta) for i in range(1, n + 1))

    def _next_rank(self) -> int:
        u = self.rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**self.theta:
            return 1
        return int(self.num_keys * (self._eta * u - self._eta + 1) ** self._alpha)

    def choose(self) -> int:
        rank = min(self._next_rank(), self.num_keys - 1)
        if not self.scramble:
            return rank
        return fnv1a_64(rank) % self.num_keys


class LatestChooser:
    """Zipfian over recency: key N-1 is hottest (YCSB workload D).

    ``advance()`` grows the keyspace as inserts land.
    """

    def __init__(self, num_keys: int, rng: random.Random):
        self.num_keys = num_keys
        self._zipf = ZipfianChooser(num_keys, rng, scramble=False)

    def advance(self, new_keys: int = 1) -> None:
        """Grow the keyspace (new hottest keys) by ``new_keys``."""
        if new_keys < 0:
            raise ValueError(f"new_keys must be >= 0, got {new_keys}")
        self.num_keys += new_keys

    def choose(self) -> int:
        rank = self._zipf.choose()
        return max(0, self.num_keys - 1 - (rank % self.num_keys))


class HotspotChooser:
    """A hot fraction of the keyspace gets a fixed fraction of accesses."""

    def __init__(
        self,
        num_keys: int,
        rng: random.Random,
        hot_fraction: float = 0.2,
        hot_access_fraction: float = 0.8,
    ):
        if num_keys <= 0:
            raise ValueError(f"num_keys must be positive, got {num_keys}")
        if not 0 < hot_fraction < 1:
            raise ValueError(f"hot_fraction must be in (0, 1), got {hot_fraction}")
        if not 0 < hot_access_fraction < 1:
            raise ValueError(
                f"hot_access_fraction must be in (0, 1), got {hot_access_fraction}"
            )
        self.num_keys = num_keys
        self.rng = rng
        self.hot_keys = max(1, math.floor(num_keys * hot_fraction))
        self.hot_access_fraction = hot_access_fraction

    def choose(self) -> int:
        if self.rng.random() < self.hot_access_fraction:
            return self.rng.randrange(self.hot_keys)
        if self.hot_keys >= self.num_keys:
            return self.rng.randrange(self.num_keys)
        return self.rng.randrange(self.hot_keys, self.num_keys)
