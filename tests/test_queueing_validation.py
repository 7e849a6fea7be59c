"""Validation of the simulation substrate against queueing theory.

The reproduction's credibility rests on the simulator's queueing
behaviour being *correct*, not just plausible.  These tests drive the
primitives with workloads whose analytic answers are known (M/M/1,
M/D/1, Little's law) and check the measurements against the formulas.
"""

import random

import pytest

from repro.resources.cpu import Cpu, CpuParams
from repro.resources.disk import Disk, DiskParams
from repro.resources.units import MB
from repro.simulation import Environment


def run_mm1(env, service_mean, arrival_rate, horizon, seed=7):
    """Drive a single-core CPU as an M/M/1 queue; return waits/counts."""
    cpu = Cpu(env, CpuParams(cores=1, stochastic=True), rng=random.Random(seed))
    rng = random.Random(seed + 1)
    sojourns = []
    in_system_integral = [0.0, 0.0]  # (integral, last_t)
    population = [0]

    def tick(delta):
        in_system_integral[0] += population[0] * (env.now - in_system_integral[1])
        in_system_integral[1] = env.now

    def job(env):
        arrived = env.now
        tick(0)
        population[0] += 1
        yield from cpu.execute(service_mean)
        tick(0)
        population[0] -= 1
        sojourns.append(env.now - arrived)

    def arrivals(env):
        while True:
            yield env.timeout(rng.expovariate(arrival_rate))
            env.process(job(env))

    env.process(arrivals(env))
    env.run(until=horizon)
    mean_sojourn = sum(sojourns) / len(sojourns)
    mean_population = in_system_integral[0] / env.now
    throughput = len(sojourns) / env.now
    return mean_sojourn, mean_population, throughput


class TestMm1:
    def test_sojourn_matches_formula(self, env):
        """M/M/1: E[T] = 1 / (mu - lambda)."""
        service_mean = 0.01  # mu = 100
        arrival_rate = 50.0  # rho = 0.5
        mean_sojourn, _, _ = run_mm1(env, service_mean, arrival_rate, horizon=2000)
        expected = 1.0 / (100.0 - 50.0)
        assert mean_sojourn == pytest.approx(expected, rel=0.1)

    def test_high_utilization_amplification(self, env):
        """At rho = 0.8 the sojourn is 5x the service time."""
        mean_sojourn, _, _ = run_mm1(env, 0.01, 80.0, horizon=3000)
        assert mean_sojourn == pytest.approx(0.05, rel=0.15)

    def test_littles_law(self, env):
        """L = lambda * W, measured independently."""
        mean_sojourn, mean_population, throughput = run_mm1(
            env, 0.01, 60.0, horizon=2000
        )
        assert mean_population == pytest.approx(
            throughput * mean_sojourn, rel=0.05
        )


class TestDeterministicServer:
    def test_md1_wait_is_half_of_mm1(self, env):
        """M/D/1 queueing wait = half the M/M/1 queueing wait."""
        cpu = Cpu(env, CpuParams(cores=1, stochastic=False))
        rng = random.Random(11)
        service = 0.01
        rate = 70.0
        waits = []

        def job(env):
            arrived = env.now
            yield from cpu.execute(service)
            waits.append(env.now - arrived - service)  # queueing wait only

        def arrivals(env):
            while True:
                yield env.timeout(rng.expovariate(rate))
                env.process(job(env))

        env.process(arrivals(env))
        env.run(until=2000)
        rho = rate * service
        expected = rho * service / (2 * (1 - rho))  # M/D/1 Wq
        measured = sum(waits) / len(waits)
        assert measured == pytest.approx(expected, rel=0.15)


class TestDiskUtilization:
    def test_busy_time_matches_offered_load(self, env):
        """Served load below saturation: utilization = lambda * E[S]."""
        disk = Disk(
            env,
            DiskParams(seek_time=0.004, random_bandwidth=60 * MB,
                       sequential_bandwidth=40 * MB, stochastic_seek=True),
            rng=random.Random(5),
        )
        rng = random.Random(6)
        rate = 100.0  # requests/second
        page = 16 * 1024
        expected_service = 0.004 + page / (60 * MB)

        def reader(env):
            yield from disk.read(page)

        def arrivals(env):
            while True:
                yield env.timeout(rng.expovariate(rate))
                env.process(reader(env))

        env.process(arrivals(env))
        env.run(until=500)
        utilization = disk.stats.utilization(env.now)
        assert utilization == pytest.approx(rate * expected_service, rel=0.1)

    def test_sequential_stream_throughput_at_media_rate(self, env):
        """An undisturbed scan must stream at the sequential bandwidth."""
        disk = Disk(
            env,
            DiskParams(seek_time=0.005, sequential_bandwidth=40 * MB,
                       stochastic_seek=False),
        )
        total = 200 * MB

        def scan(env):
            done = 0
            while done < total:
                yield from disk.read(2 * MB, sequential=True, stream="scan")
                done += 2 * MB

        proc = env.process(scan(env))
        env.run(until=proc)
        # one seek + pure transfer afterwards
        assert env.now == pytest.approx(0.005 + total / (40 * MB), rel=0.01)

    def test_interleaved_scan_throughput_collapses(self, env):
        """A scan sharing the disk with random I/O pays per-chunk seeks:
        effective scan bandwidth drops well below the media rate."""
        disk = Disk(
            env,
            DiskParams(seek_time=0.005, sequential_bandwidth=40 * MB,
                       random_bandwidth=60 * MB, stochastic_seek=False),
        )
        rng = random.Random(9)
        total = 100 * MB

        def one_read():
            yield from disk.read(16 * 1024)

        def noise(env):
            while True:
                yield env.timeout(rng.expovariate(60.0))
                # In its own process: a read called here would run in
                # place, inside noise, and shift the Poisson arrivals.
                env.process(one_read())

        def scan(env):
            done = 0
            while done < total:
                yield from disk.read(1 * MB, sequential=True, stream="scan")
                done += 1 * MB
            return env.now

        env.process(noise(env))
        proc = env.process(scan(env))
        finished = env.run(until=proc)
        clean_time = total / (40 * MB)
        assert finished > 1.5 * clean_time
