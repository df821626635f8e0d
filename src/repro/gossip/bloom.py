"""Sliding Bloom filter duplicate detector.

The paper (§3.3) notes the recently-seen cache "could be obtained adopting
other approaches, such as a sliding Bloom filter". This module provides that
alternative with the same ``register`` interface as
:class:`repro.gossip.cache.InternedSeenCache`, so the two are drop-in
interchangeable (see the gossip ablation bench).

Two generations of plain Bloom filters are kept; inserts go to the current
generation, membership checks consult both, and the older generation is
discarded after a configured number of insertions — a standard sliding
scheme (Naor & Yogev). Bloom filters admit false positives: a fresh message
may be misclassified as duplicate with small probability, which for gossip
merely removes one redundant propagation path.

Bit positions are a pure function of the uid, so a deployment-wide
:class:`BloomPositionCache` (indexed by the interned dense id) computes the
blake2b digest once per uid instead of once per probe per node. The filter
that digests on every probe is the reference model in
``tests/gossip/reference_dedup.py``: bit generations and every counter
evolve identically — false positives included.
"""

import hashlib


def _hash_positions(uid, num_bits, num_hashes):
    digest = hashlib.blake2b(repr(uid).encode("utf-8"), digest_size=16).digest()
    value = int.from_bytes(digest, "big")
    return tuple((value >> (i * 17)) % num_bits for i in range(num_hashes))


class _BloomGeneration:
    __slots__ = ("bits", "num_bits", "inserted")

    def __init__(self, num_bits):
        self.bits = 0
        self.num_bits = num_bits
        self.inserted = 0

    def add_positions(self, positions):
        for pos in positions:
            self.bits |= 1 << pos
        self.inserted += 1

    def contains_positions(self, positions):
        bits = self.bits
        return all((bits >> pos) & 1 for pos in positions)


class BloomPositionCache:
    """Deployment-shared memo of bit positions, indexed by dense id.

    Positions depend only on ``(uid, num_bits, num_hashes)``; sharing one
    cache across all nodes means each uid is digested once per deployment
    instead of once per hop per node.
    """

    __slots__ = ("interner", "num_bits", "num_hashes", "_table")

    def __init__(self, interner, num_bits, num_hashes):
        self.interner = interner
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._table = []

    def positions_for(self, iid, uid):
        table = self._table
        if iid >= len(table):
            table.extend([None] * (iid + 1 - len(table)))
        positions = table[iid]
        if positions is None:
            table[iid] = positions = _hash_positions(
                uid, self.num_bits, self.num_hashes)
        return positions


class InternedSlidingBloomFilter:
    """Duplicate detector with bounded memory and a sliding window.

    The blake2b digest per uid is computed once per deployment, in the
    shared :class:`BloomPositionCache`, not once per probe.
    """

    __slots__ = ("num_bits", "num_hashes", "generation_size", "positions",
                 "_current", "_previous", "registered", "hits")

    def __init__(self, positions, generation_size=20_000):
        self.positions = positions
        self.num_bits = positions.num_bits
        self.num_hashes = positions.num_hashes
        self.generation_size = generation_size
        self._current = _BloomGeneration(self.num_bits)
        self._previous = None
        self.registered = 0
        self.hits = 0

    def _contains_positions(self, pos):
        if self._current.contains_positions(pos):
            return True
        if self._previous is not None:
            return self._previous.contains_positions(pos)
        return False

    def __contains__(self, uid):
        iid = self.positions.interner.lookup(uid)
        if iid is None:
            pos = _hash_positions(uid, self.num_bits, self.num_hashes)
        else:
            pos = self.positions.positions_for(iid, uid)
        return self._contains_positions(pos)

    def register(self, uid):
        """Record ``uid``; returns True if it looked fresh."""
        iid = self.positions.interner.intern(uid)
        return self._register_iid(iid, uid)

    def register_payload(self, payload):
        """Record ``payload``, interning its uid once per deployment."""
        iid = payload.iid
        if iid is None:
            payload.iid = iid = self.positions.interner.intern(payload.uid)
        return self._register_iid(iid, payload.uid)

    def _register_iid(self, iid, uid):
        pos = self.positions.positions_for(iid, uid)
        if self._contains_positions(pos):
            self.hits += 1
            return False
        self._current.add_positions(pos)
        self.registered += 1
        if self._current.inserted >= self.generation_size:
            self._previous = self._current
            self._current = _BloomGeneration(self.num_bits)
        return True
