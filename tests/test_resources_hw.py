"""Tests for the disk, CPU, network, and server hardware models."""

import random

import pytest

from repro.resources import (
    Cpu,
    CpuParams,
    Disk,
    DiskParams,
    NetworkLink,
    NetworkParams,
    Server,
    ServerParams,
    MB,
)
from repro.simulation import RandomStreams
from tests.conftest import run_process


def det_disk(env, seq_mb=50.0, seek_ms=5.0) -> Disk:
    """A disk with deterministic (non-stochastic) positioning."""
    params = DiskParams(
        seek_time=seek_ms * 1e-3,
        sequential_bandwidth=seq_mb * MB,
        random_bandwidth=50.0 * MB,
        stochastic_seek=False,
    )
    return Disk(env, params, rng=random.Random(0))


class TestDiskParams:
    def test_negative_seek_rejected(self):
        with pytest.raises(ValueError):
            DiskParams(seek_time=-1)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            DiskParams(sequential_bandwidth=0)


class TestDiskService:
    def test_random_read_pays_seek(self, env):
        disk = det_disk(env)
        run_process(env, disk.read(MB))
        assert env.now == pytest.approx(0.005 + 1 / 50)

    def test_sequential_stream_pays_seek_once(self, env):
        disk = det_disk(env)

        def two_chunks(env, disk):
            yield from disk.read(MB, sequential=True, stream="scan")
            yield from disk.read(MB, sequential=True, stream="scan")

        run_process(env, two_chunks(env, disk))
        # one positioning + two transfers
        assert env.now == pytest.approx(0.005 + 2 / 50)

    def test_interleaved_random_breaks_stream(self, env):
        disk = det_disk(env)

        def interleaved(env, disk):
            yield from disk.read(MB, sequential=True, stream="scan")
            yield from disk.read(16 * 1024)  # random access moves the arm
            yield from disk.read(MB, sequential=True, stream="scan")

        run_process(env, interleaved(env, disk))
        # two positionings for the stream + one for the random read
        expected = 3 * 0.005 + 2 / 50 + (16 * 1024) / (50 * MB)
        assert env.now == pytest.approx(expected)
        assert disk.stats.broken_streams >= 1

    def test_different_streams_reposition(self, env):
        disk = det_disk(env)

        def two_streams(env, disk):
            yield from disk.read(MB, sequential=True, stream="a")
            yield from disk.read(MB, sequential=True, stream="b")

        run_process(env, two_streams(env, disk))
        assert env.now == pytest.approx(2 * 0.005 + 2 / 50)

    def test_cached_write_skips_positioning(self, env):
        disk = det_disk(env)
        run_process(env, disk.write(MB, sequential=True, cached=True))
        assert env.now == pytest.approx(1 / 50)

    def test_cached_write_does_not_move_arm(self, env):
        disk = det_disk(env)

        def seq_around_cache(env, disk):
            yield from disk.read(MB, sequential=True, stream="scan")
            yield from disk.write(4096, cached=True, sequential=True)
            yield from disk.read(MB, sequential=True, stream="scan")

        run_process(env, seq_around_cache(env, disk))
        # cached write costs transfer only; stream continuity preserved
        expected = 0.005 + 2 / 50 + 4096 / (50 * MB)
        assert env.now == pytest.approx(expected)

    def test_negative_bytes_rejected(self, env):
        disk = det_disk(env)
        with pytest.raises(ValueError):
            run_process(env, disk.read(-1))

    def test_fifo_queueing(self, env):
        disk = det_disk(env)
        finish = []

        def reader(env, disk, tag):
            yield from disk.read(MB, sequential=True, stream=tag)
            finish.append((tag, env.now))

        for tag in ("a", "b"):
            env.process(reader(env, disk, tag))
        env.run()
        assert [t for t, _ in finish] == ["a", "b"]
        assert finish[1][1] > finish[0][1]

    def test_stats_counters(self, env):
        disk = det_disk(env)

        def ops(env, disk):
            yield from disk.read(MB)
            yield from disk.write(MB)
            yield from disk.read(MB, sequential=True, stream="s")
            yield from disk.write(MB, sequential=True, stream="s")
            yield from disk.write(4096, cached=True)

        run_process(env, ops(env, disk))
        s = disk.stats
        assert s.random_reads == 1
        assert s.random_writes == 1
        assert s.sequential_reads == 1
        assert s.sequential_writes == 1
        assert s.cached_writes == 1
        assert s.total_requests == 5
        assert s.bytes_read == 2 * MB
        assert s.bytes_written == 2 * MB + 4096

    def test_utilization(self, env):
        disk = det_disk(env)

        def busy_then_idle(env, disk):
            yield from disk.read(MB, sequential=True, stream="s")
            yield env.timeout(1.0)

        run_process(env, busy_then_idle(env, disk))
        util = disk.stats.utilization(env.now)
        assert 0 < util < 0.1

    def test_stochastic_seek_varies(self, env):
        params = DiskParams(stochastic_seek=True)
        disk = Disk(env, params, rng=random.Random(5))
        draws = {
            disk._service((env.now, 16 * 1024, False, None, False, False))
            for _ in range(10)
        }
        assert len(draws) > 1


class TestCpu:
    def test_invalid_cores_rejected(self):
        with pytest.raises(ValueError):
            CpuParams(cores=0)

    def test_deterministic_burst(self, env):
        cpu = Cpu(env, CpuParams(cores=1, stochastic=False))
        run_process(env, cpu.execute(0.25))
        assert env.now == pytest.approx(0.25)
        assert cpu.stats.bursts == 1

    def test_cores_run_in_parallel(self, env):
        cpu = Cpu(env, CpuParams(cores=2, stochastic=False))
        for _ in range(2):
            env.process(cpu.execute(1.0))
        env.run()
        assert env.now == pytest.approx(1.0)

    def test_excess_bursts_queue(self, env):
        cpu = Cpu(env, CpuParams(cores=1, stochastic=False))
        for _ in range(3):
            env.process(cpu.execute(1.0))
        env.run()
        assert env.now == pytest.approx(3.0)

    def test_zero_burst_is_free(self, env):
        cpu = Cpu(env, CpuParams(cores=1, stochastic=False))
        run_process(env, cpu.execute(0.0))
        assert env.now == 0.0

    def test_negative_burst_rejected(self, env):
        cpu = Cpu(env)
        with pytest.raises(ValueError):
            run_process(env, cpu.execute(-1.0))

    def test_utilization(self, env):
        cpu = Cpu(env, CpuParams(cores=4, stochastic=False))

        def work(env, cpu):
            yield from cpu.execute(1.0)
            yield env.timeout(1.0)

        run_process(env, work(env, cpu))
        assert cpu.stats.utilization(env.now, cores=4) == pytest.approx(1 / 8)


class TestNetwork:
    def test_transfer_time(self, env):
        link = NetworkLink(env, NetworkParams(bandwidth=100 * MB, latency=0.001))
        run_process(env, link.transfer(50 * MB))
        assert env.now == pytest.approx(0.5 + 0.001)

    def test_transfers_serialize(self, env):
        link = NetworkLink(env, NetworkParams(bandwidth=100 * MB, latency=0.0))
        for _ in range(2):
            env.process(link.transfer(100 * MB))
        env.run()
        assert env.now == pytest.approx(2.0)

    def test_stats(self, env):
        link = NetworkLink(env)
        run_process(env, link.transfer(MB))
        assert link.stats.transfers == 1
        assert link.stats.bytes_sent == MB

    def test_negative_bytes_rejected(self, env):
        link = NetworkLink(env)
        with pytest.raises(ValueError):
            run_process(env, link.transfer(-5))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            NetworkParams(bandwidth=0)
        with pytest.raises(ValueError):
            NetworkParams(latency=-1)


class TestServer:
    def test_server_bundles_resources(self, env):
        server = Server(env, "s1", streams=RandomStreams(3))
        assert server.cpu is not None
        assert server.disk is not None
        assert server.nic_in is not server.nic_out

    def test_server_rng_streams_cached(self, env):
        server = Server(env, "s1", streams=RandomStreams(3))
        assert server.rng("x") is server.rng("x")

    def test_custom_params(self, env):
        params = ServerParams(cpu=CpuParams(cores=8))
        server = Server(env, "s1", params=params)
        assert server.params.cpu.cores == 8
