"""The uid-keyed duplicate detector: an executable reference model.

This is the structure :class:`repro.gossip.cache.InternedSeenCache`
replaced with arrays over interned dense ids. It lives with the tests
because nothing else constructs it:
`tests/properties/test_interner_props.py` drives random registration
traces through both and demands the same verdicts, counters and
membership.
"""


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

