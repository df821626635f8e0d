"""Tests for the sliding Bloom filter."""

from repro.gossip.bloom import BloomPositionCache, InternedSlidingBloomFilter
from repro.net.message import UidInterner


def _bloom(num_bits=1 << 17, num_hashes=4, generation_size=20_000):
    """A filter over its own interner, with the deployment's parameters."""
    positions = BloomPositionCache(UidInterner(), num_bits, num_hashes)
    return InternedSlidingBloomFilter(positions, generation_size)


def test_fresh_registration():
    bloom = _bloom()
    assert bloom.register("a") is True


def test_no_false_negatives_within_generation():
    bloom = _bloom(generation_size=1000)
    for i in range(500):
        bloom.register(("msg", i))
    for i in range(500):
        assert ("msg", i) in bloom
        assert bloom.register(("msg", i)) is False


def test_sliding_forgets_old_generations():
    bloom = _bloom(generation_size=10)
    bloom.register("old")
    # Fill two full generations so "old" rotates out.
    for i in range(25):
        bloom.register(("filler", i))
    assert "old" not in bloom


def test_recent_items_survive_one_rotation():
    bloom = _bloom(generation_size=10)
    for i in range(9):
        bloom.register(("gen1", i))
    bloom.register("pivot")  # completes generation 1
    # Items from the previous generation are still detected.
    assert "pivot" in bloom
    assert ("gen1", 5) in bloom


def test_false_positive_rate_is_low():
    bloom = _bloom(num_bits=1 << 16, num_hashes=4,
              generation_size=5000)
    for i in range(2000):
        bloom.register(("present", i))
    false_positives = sum(1 for i in range(2000) if ("absent", i) in bloom)
    assert false_positives / 2000 < 0.05


def test_counters():
    bloom = _bloom()
    bloom.register("a")
    bloom.register("a")
    assert bloom.registered == 1
    assert bloom.hits == 1


def test_interface_compatible_with_cache():
    """Drop-in interchangeable with InternedSeenCache for GossipNode."""
    bloom = _bloom()
    assert hasattr(bloom, "register")
    assert bloom.register(("2B", 1, 1, 2)) is True
    assert ("2B", 1, 1, 2) in bloom
