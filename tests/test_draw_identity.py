"""The direct exponential draws equal CPython's ``expovariate`` bit for bit.

``Cpu.burst_time`` and ``Disk._positioning_time`` compute
``-log(1.0 - rng.random()) / (1.0 / mean)`` instead of calling
``rng.expovariate(1.0 / mean)``, and ``PoissonArrivals`` divides
pre-drawn ``-log(1.0 - U)`` numerators by the rate.  Each must consume
the stream exactly as ``expovariate`` does and return the same float,
or every trajectory moves.  The comparisons are exact (``==``), on every
interpreter the suite runs under.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.resources.cpu import Cpu, CpuParams
from repro.resources.disk import Disk, DiskParams
from repro.simulation import Environment
from repro.workload.generator import PoissonArrivals

#: Means from a nanosecond to twenty minutes, with awkward mantissas.
MEANS = [
    scale * mantissa
    for scale in (1e-9, 1e-7, 1e-5, 1e-3, 1e-1, 1e1, 1e3)
    for mantissa in (1.0, 1.7, 3.0, 2.0 / 3.0, 9.99)
    if scale * mantissa <= 1e3
]
DRAWS = 200


@pytest.mark.parametrize("mean", MEANS)
@pytest.mark.parametrize("seed", [0, 42, 2**61 - 1])
def test_cpu_burst_time_is_expovariate(mean, seed):
    cpu = Cpu(Environment(), CpuParams(), rng=random.Random(seed))
    twin = random.Random(seed)
    for _ in range(DRAWS):
        assert cpu.burst_time(mean) == twin.expovariate(1.0 / mean)
    assert cpu.rng.getstate() == twin.getstate()


@pytest.mark.parametrize("mean", MEANS)
@pytest.mark.parametrize("seed", [0, 42, 2**61 - 1])
def test_disk_positioning_time_is_expovariate(mean, seed):
    disk = Disk(Environment(), DiskParams(seek_time=mean), rng=random.Random(seed))
    twin = random.Random(seed)
    for _ in range(DRAWS):
        assert disk._positioning_time() == twin.expovariate(1.0 / mean)
    assert disk.rng.getstate() == twin.getstate()


@given(
    mean=st.floats(min_value=1e-9, max_value=1e3, allow_subnormal=False),
    seed=st.integers(min_value=0, max_value=2**64),
)
def test_any_mean_draws_expovariate(mean, seed):
    cpu = Cpu(Environment(), CpuParams(), rng=random.Random(seed))
    disk = Disk(Environment(), DiskParams(seek_time=mean), rng=random.Random(seed))
    cpu_twin, disk_twin = random.Random(seed), random.Random(seed)
    for _ in range(20):
        assert cpu.burst_time(mean) == cpu_twin.expovariate(1.0 / mean)
        assert disk._positioning_time() == disk_twin.expovariate(1.0 / mean)


@pytest.mark.parametrize("rate", [1e-3, 0.37, 1.0, 60.0, 1234.5, 1e9])
def test_poisson_interarrival_is_expovariate(rate):
    arrivals = PoissonArrivals(rate, random.Random(7))
    twin = random.Random(7)
    # More than one refill of the pre-drawn batch.
    for _ in range(PoissonArrivals.BATCH * 2 + 3):
        assert arrivals.next_interarrival() == twin.expovariate(rate)


def test_poisson_interarrival_follows_rate_changes():
    arrivals = PoissonArrivals(10.0, random.Random(11))
    twin = random.Random(11)
    for step in range(PoissonArrivals.BATCH + 50):
        if step % 37 == 0:
            arrivals.set_rate(10.0 + step / 3.0)
        assert arrivals.next_interarrival() == twin.expovariate(arrivals.rate)
