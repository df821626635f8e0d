"""Shared fixtures for the test suite."""

import pytest

from repro.runtime.config import ExperimentConfig
from repro.sim.kernel import Simulator


@pytest.fixture
def sim():
    """A fresh deterministic simulator."""
    return Simulator(seed=42)


def fast_config(**overrides):
    """An ExperimentConfig small and short enough for unit tests."""
    defaults = dict(
        setup="gossip",
        n=7,
        rate=40.0,
        warmup=0.6,
        duration=1.0,
        drain=2.0,
        seed=7,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def mask(*senders):
    """The sender bitmask of ``senders``: bit i set for process i."""
    bits = 0
    for sender in senders:
        bits |= 1 << sender
    return bits
