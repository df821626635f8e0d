"""Uid-keyed duplicate detectors: the executable reference models.

These are the structures :class:`repro.gossip.cache.InternedSeenCache` and
:class:`repro.gossip.bloom.InternedSlidingBloomFilter` replaced with
arrays over interned dense ids. They live with the tests because nothing
else constructs them: `tests/properties/test_interner_props.py` drives
random registration traces through each pair and demands the same
verdicts, counters, membership and (for the filter) bitmaps.
"""

import hashlib


class RecentlySeenCache:
    """Bounded FIFO set of hashable message ids, dict-backed."""

    __slots__ = ("capacity", "_entries", "registered", "hits", "evictions")

    def __init__(self, capacity=100_000):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries = {}
        self.registered = 0
        self.hits = 0
        self.evictions = 0

    def __len__(self):
        return len(self._entries)

    def __contains__(self, uid):
        return uid in self._entries

    def register(self, uid):
        """Record ``uid``; returns True if it was not present (fresh)."""
        entries = self._entries
        if uid in entries:
            self.hits += 1
            return False
        entries[uid] = None
        self.registered += 1
        if len(entries) > self.capacity:
            # dicts preserve insertion order: the first key is the oldest.
            entries.pop(next(iter(entries)))
            self.evictions += 1
        return True

    def register_payload(self, payload):
        return self.register(payload.uid)


class _BloomGeneration:
    __slots__ = ("bits", "num_bits", "inserted")

    def __init__(self, num_bits):
        self.bits = 0
        self.num_bits = num_bits
        self.inserted = 0

    def _positions(self, uid, num_hashes):
        digest = hashlib.blake2b(repr(uid).encode("utf-8"), digest_size=16).digest()
        value = int.from_bytes(digest, "big")
        for i in range(num_hashes):
            yield (value >> (i * 17)) % self.num_bits

    def add(self, uid, num_hashes):
        for pos in self._positions(uid, num_hashes):
            self.bits |= 1 << pos
        self.inserted += 1

    def contains(self, uid, num_hashes):
        bits = self.bits
        return all((bits >> pos) & 1 for pos in self._positions(uid, num_hashes))


class SlidingBloomFilter:
    """Two-generation sliding Bloom filter that digests the uid per probe."""

    __slots__ = ("num_bits", "num_hashes", "generation_size",
                 "_current", "_previous", "registered", "hits")

    def __init__(self, num_bits=1 << 17, num_hashes=4, generation_size=20_000):
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self.generation_size = generation_size
        self._current = _BloomGeneration(num_bits)
        self._previous = None
        self.registered = 0
        self.hits = 0

    def __contains__(self, uid):
        if self._current.contains(uid, self.num_hashes):
            return True
        if self._previous is not None:
            return self._previous.contains(uid, self.num_hashes)
        return False

    def register(self, uid):
        """Record ``uid``; returns True if it looked fresh."""
        if uid in self:
            self.hits += 1
            return False
        self._current.add(uid, self.num_hashes)
        self.registered += 1
        if self._current.inserted >= self.generation_size:
            self._previous = self._current
            self._current = _BloomGeneration(self.num_bits)
        return True

    def register_payload(self, payload):
        return self.register(payload.uid)
