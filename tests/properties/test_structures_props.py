"""Property-based tests on the supporting data structures."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossip.cache import InternedSeenCache
from repro.net.message import UidInterner
from repro.net.overlay import generate_overlay
from repro.paxos.log import DecisionLog
from repro.runtime.metrics import percentile
from repro.sim.kernel import Simulator


@given(
    uids=st.lists(st.integers(min_value=0, max_value=50), max_size=200),
    capacity=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=100, deadline=None)
def test_cache_size_never_exceeds_capacity(uids, capacity):
    cache = InternedSeenCache(capacity, UidInterner())
    for uid in uids:
        cache.register(uid)
        assert len(cache) <= capacity


@given(uids=st.lists(st.integers(min_value=0, max_value=20), max_size=100))
@settings(max_examples=100, deadline=None)
def test_cache_no_false_duplicates(uids):
    """register() returns False only for a uid registered before."""
    cache = InternedSeenCache(1000, UidInterner())  # large: no evictions
    seen = set()
    for uid in uids:
        fresh = cache.register(uid)
        assert fresh == (uid not in seen)
        seen.add(uid)


@given(
    n=st.integers(min_value=2, max_value=60),
    k=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=60, deadline=None)
def test_overlay_always_connected_and_symmetric(n, k, seed):
    overlay = generate_overlay(n, k, random.Random(seed))
    assert overlay.is_connected()
    for i in range(n):
        assert overlay.degree(i) >= min(k, n - 1)
        for peer in overlay.peers(i):
            assert i in overlay.peers(peer)


@given(order=st.permutations(list(range(1, 12))))
@settings(max_examples=100, deadline=None)
def test_decision_log_delivers_in_order_regardless_of_arrival(order):
    log = DecisionLog()
    delivered = []
    for instance in order:
        log.add(instance, "v{}".format(instance))
        delivered.extend(log.pop_ready())
    assert [i for i, _ in delivered] == list(range(1, 12))


@given(
    samples=st.lists(st.floats(min_value=0.0, max_value=1e3,
                               allow_nan=False), min_size=1, max_size=100),
    p=st.floats(min_value=0.0, max_value=100.0),
)
@settings(max_examples=200, deadline=None)
def test_percentile_within_sample_range(samples, p):
    xs = sorted(samples)
    value = percentile(xs, p)
    assert xs[0] <= value <= xs[-1]


@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=10.0,
                              allow_nan=False), min_size=1, max_size=50),
)
@settings(max_examples=100, deadline=None)
def test_simulator_time_is_monotone(delays):
    sim = Simulator(seed=0)
    times = []
    for delay in delays:
        sim.schedule(delay, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)
    assert len(times) == len(delays)
