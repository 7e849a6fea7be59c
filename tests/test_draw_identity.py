"""The hand-inlined draws equal the library calls they replace, bit for bit.

``Cpu.burst_time`` and ``Disk._positioning_time`` compute
``-log(1.0 - rng.random()) / (1.0 / mean)`` instead of calling
``rng.expovariate(1.0 / mean)``, and ``PoissonArrivals`` divides
pre-drawn ``-log(1.0 - U)`` numerators by the rate.
``UniformChooser.choose`` runs ``randrange``'s ``getrandbits``
rejection loop itself, and ``TransactionFactory.build`` walks the mix's
running sums inline for all of a transaction's operations.  Each must
consume the stream exactly as the library call (or the per-operation
builder) does and return the same value, or every trajectory moves.
The comparisons are exact (``==``), on every interpreter the suite runs
under.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db.pages import TableLayout
from repro.db.transactions import Operation
from repro.resources.cpu import Cpu, CpuParams
from repro.resources.disk import Disk, DiskParams
from repro.simulation import Environment
from repro.workload.distributions import UniformChooser
from repro.workload.generator import PoissonArrivals, TransactionFactory
from repro.workload.mix import SLACKER_MIX, YCSB_A, YCSB_E

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


#: Key counts: one, powers of two and their neighbours, and the row
#: counts of the benchmark's tenants (64, 128 and 1,024 MB of 1 KB rows).
KEY_COUNTS = [1, 2, 3, 7, 8, 9, 1000, 2**16, 2**17, 2**20, 2**20 + 1, 2**40 - 1]


@pytest.mark.parametrize("num_keys", KEY_COUNTS)
@pytest.mark.parametrize("seed", [0, 42, 2**61 - 1])
def test_uniform_choose_is_randrange(num_keys, seed):
    chooser = UniformChooser(num_keys, random.Random(seed))
    twin = random.Random(seed)
    for _ in range(DRAWS):
        assert chooser.choose() == twin.randrange(num_keys)
    assert chooser.rng.getstate() == twin.getstate()


def _per_operation_build(factory, arrived_at):
    """The builder ``TransactionFactory.build`` replaced: one call per operation."""
    rng, layout = factory.rng, factory.layout
    operations = []
    for _ in range(factory.ops_per_txn):
        op_type = factory.mix.sample(rng)
        key = factory.chooser.choose() % layout.num_rows
        if op_type.is_scan:
            length = rng.randint(1, factory.max_scan_length)
            length = min(length, layout.num_rows - key)
            operations.append(Operation(op_type, key, max(1, length)))
        else:
            operations.append(Operation(op_type, key))
    return next(factory._ids), operations, arrived_at


def _factory(mix, num_rows, seed, shared, max_scan_length):
    """A factory whose chooser draws from its own stream, or from the factory's."""
    rng = random.Random(seed)
    keys = rng if shared else random.Random(seed + 1)
    return TransactionFactory(
        TableLayout(num_rows=num_rows, row_size=1024),
        UniformChooser(num_rows, keys),
        rng,
        mix=mix,
        max_scan_length=max_scan_length,
    )


@pytest.mark.parametrize("mix", [SLACKER_MIX, YCSB_A, YCSB_E], ids=["slacker", "ycsb-a", "ycsb-e"])
@pytest.mark.parametrize("num_rows", [50, 2**16, 2**20])
@pytest.mark.parametrize("shared", [False, True], ids=["own-key-stream", "shared-stream"])
def test_build_equals_the_per_operation_builder(mix, num_rows, shared):
    # Scans near the end of a 50-row table are clipped to the rows left.
    factory = _factory(mix, num_rows, 42, shared, max_scan_length=100)
    twin = _factory(mix, num_rows, 42, shared, max_scan_length=100)
    for step in range(DRAWS):
        txn = factory.build(arrived_at=step * 0.5)
        assert (txn.txn_id, list(txn.operations), txn.arrived_at) == (
            _per_operation_build(twin, step * 0.5)
        )
    assert factory.rng.getstate() == twin.rng.getstate()
    assert factory.chooser.rng.getstate() == twin.chooser.rng.getstate()
