"""Recently-seen message cache (paper §3.3).

Bounded, insertion-ordered set of message unique identifiers used for
duplicate suppression in the push dissemination. As in the paper, the cache
stores ids only (not messages), so its memory footprint is small and
constant; when full, the oldest id is evicted, which means duplicate
suppression is probabilistic — exactly the paper's "no actual guarantee of
deliver-and-forward-once" behaviour.

The set is array-backed over a deployment-wide
:class:`repro.net.message.UidInterner`: membership is one byte-array
index, the FIFO window is a deque of dense ints — O(1) without hashing
structured uids, which is what keeps the dedup probe flat at N=1000. The
dict-backed, uid-keyed form it replaced is its reference model in
``tests/gossip/reference_dedup.py``.
"""

from collections import deque


class InternedSeenCache:
    """Bounded FIFO set of message ids, over interned dense ids.

    Membership is ``present[iid]`` on a bytearray grown geometrically to
    the interner's size; the FIFO window is a deque of iids in insertion
    order, so the oldest id is the one evicted.
    """

    __slots__ = ("capacity", "interner", "_present", "_order",
                 "registered", "hits", "evictions")

    def __init__(self, capacity=100_000, interner=None):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if interner is None:
            raise ValueError("InternedSeenCache requires a UidInterner")
        self.capacity = capacity
        self.interner = interner
        self._present = bytearray(64)
        self._order = deque()
        self.registered = 0
        self.hits = 0
        self.evictions = 0

    def __len__(self):
        return len(self._order)

    def __contains__(self, uid):
        iid = self.interner.lookup(uid)
        if iid is None or iid >= len(self._present):
            return False
        return bool(self._present[iid])

    def register(self, uid):
        """Record ``uid``; returns True if it was not present (fresh)."""
        return self._register_iid(self.interner.intern(uid))

    def register_payload(self, payload):
        """Record ``payload``, interning its uid once per deployment.

        A resident id — most probes, since most arrivals are duplicates
        — is answered in this frame; only an insert calls on.
        """
        iid = payload.iid
        if iid is None:
            payload.iid = iid = self.interner.intern(payload.uid)
        present = self._present
        if iid < len(present) and present[iid]:
            self.hits += 1
            return False
        return self._register_iid(iid)

    def _register_iid(self, iid):
        present = self._present
        if iid >= len(present):
            grown = bytearray(max(iid + 1, 2 * len(present)))
            grown[:len(present)] = present
            self._present = present = grown
        if present[iid]:
            self.hits += 1
            return False
        present[iid] = 1
        order = self._order
        order.append(iid)
        self.registered += 1
        if len(order) > self.capacity:
            present[order.popleft()] = 0
            self.evictions += 1
        return True
