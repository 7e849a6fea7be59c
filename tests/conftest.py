"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.db.engine import DatabaseEngine
from repro.db.pages import TableLayout
from repro.resources.server import Server
from repro.resources.units import MB
from repro.simulation import Environment, RandomStreams

#: The kernel oracle's properties at the example count its mutation checks
#: used: ``pytest tests/test_kernel_oracle.py --hypothesis-profile=kernel-oracle``.
settings.register_profile("kernel-oracle", max_examples=3000, deadline=None)


@pytest.fixture
def env() -> Environment:
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def streams() -> RandomStreams:
    """Deterministic random streams."""
    return RandomStreams(seed=1234)


@pytest.fixture
def rng() -> random.Random:
    """A seeded stdlib RNG."""
    return random.Random(99)


@pytest.fixture
def server(env, streams) -> Server:
    """A default server."""
    return Server(env, "test-server", streams=streams)


@pytest.fixture
def small_layout() -> TableLayout:
    """A 16 MB table layout (fast to migrate/scan)."""
    return TableLayout.for_data_size(16 * MB)


@pytest.fixture
def engine(env, server, small_layout) -> DatabaseEngine:
    """A small tenant engine with a 2 MB buffer pool."""
    return DatabaseEngine(
        env, server, small_layout, name="tenant-t", buffer_bytes=2 * MB
    )


def run_process(env: Environment, generator):
    """Run ``generator`` as a process to completion; return its value."""
    proc = env.process(generator)
    return env.run(until=proc)
