"""Recently-seen message cache (paper §3.3), the one duplicate detector.

Bounded, insertion-ordered set of message unique identifiers used for
duplicate suppression in the push dissemination. As in the paper, the cache
stores ids only (not messages), so its memory footprint is small and
constant; when full, the oldest id is evicted, which means duplicate
suppression is probabilistic — exactly the paper's "no actual guarantee of
deliver-and-forward-once" behaviour.

The set is array-backed over a deployment-wide
:class:`repro.net.message.UidInterner`: membership is one bit per dense
id, the FIFO window is a ring of 32-bit ids — O(1) without hashing
structured uids, which is what keeps the dedup probe flat at N=1000.

:class:`InternedSeenCache` is compiled (``repro/sim/_kernel/cache.c``,
one extension with the event heap). ``InternedSeenCache(capacity=100_000,
interner)`` needs the interner; its surface is ``register(uid)``,
``register_payload(payload)`` (both True for a fresh id; a payload's uid
is interned once per deployment into ``payload.iid``), ``uid in cache``,
``len(cache)``, the counters ``registered``, ``hits`` and ``evictions``,
and ``capacity`` and ``interner``. It is the only cache a gossip node
takes: the node calls its probe in C. Its Python form is the reference
model in ``tests/reference/cache.py``, and the dict-backed,
uid-keyed form before that is in ``tests/reference/dedup.py``.
"""

from repro.sim.events import compiled

InternedSeenCache = compiled.InternedSeenCache
