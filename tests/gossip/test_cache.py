"""Tests for the recently-seen cache."""

import pytest

from repro.gossip.cache import InternedSeenCache
from repro.net.message import UidInterner


def test_register_fresh_returns_true():
    cache = InternedSeenCache(10, UidInterner())
    assert cache.register("a") is True


def test_register_duplicate_returns_false():
    cache = InternedSeenCache(10, UidInterner())
    cache.register("a")
    assert cache.register("a") is False
    assert cache.hits == 1


def test_contains():
    cache = InternedSeenCache(10, UidInterner())
    cache.register("a")
    assert "a" in cache
    assert "b" not in cache


def test_eviction_of_oldest():
    cache = InternedSeenCache(2, UidInterner())
    cache.register("a")
    cache.register("b")
    cache.register("c")  # evicts "a"
    assert "a" not in cache
    assert "b" in cache
    assert "c" in cache
    assert cache.evictions == 1


def test_evicted_id_registers_as_fresh_again():
    """The paper's 'no deliver-and-forward-once guarantee' behaviour."""
    cache = InternedSeenCache(1, UidInterner())
    cache.register("a")
    cache.register("b")
    assert cache.register("a") is True


def test_len_bounded_by_capacity():
    cache = InternedSeenCache(5, UidInterner())
    for i in range(100):
        cache.register(i)
    assert len(cache) == 5


def test_invalid_capacity():
    with pytest.raises(ValueError):
        InternedSeenCache(0, UidInterner())


def test_counters():
    cache = InternedSeenCache(10, UidInterner())
    for uid in ("a", "b", "a", "a"):
        cache.register(uid)
    assert cache.registered == 2
    assert cache.hits == 2


def test_tuple_uids():
    cache = InternedSeenCache(10, UidInterner())
    assert cache.register(("2B", 1, 1, 3)) is True
    assert cache.register(("2B", 1, 1, 3)) is False
    assert cache.register(("2B", 1, 1, 4)) is True
