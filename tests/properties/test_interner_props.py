"""Property tests for the uid interner and the array-backed dedup caches.

The flat-state hot path rests on one behavioural-equivalence claim
against the uid-keyed reference model of
``tests/reference/dedup.py``: :class:`InternedSeenCache` is
indistinguishable from :class:`RecentlySeenCache` — same freshness
verdicts, same ``registered``/``hits``/``evictions`` counters, same
membership — for *any* trace of registrations under *any* capacity.
This property is what let the array form replace the uid-keyed one
without disturbing a single committed fingerprint.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossip.cache import InternedSeenCache
from repro.net.message import Payload, UidInterner
from tests.reference.dedup import RecentlySeenCache

#: Structured uids like the gossip layer's (kind, sender, counter) tuples,
#: drawn from a small space so traces revisit uids (duplicates, eviction
#: re-registration) often.
_uids = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.tuples(st.sampled_from(["1a", "2b", "dec"]),
              st.integers(min_value=0, max_value=5),
              st.integers(min_value=0, max_value=5)),
)


# -- interner ----------------------------------------------------------------


@given(uids=st.lists(_uids, max_size=200))
@settings(max_examples=100, deadline=None)
def test_interner_round_trip_dense_collision_free(uids):
    interner = UidInterner()
    assigned = {}
    for uid in uids:
        iid = interner.intern(uid)
        if uid in assigned:
            # Stable: re-interning returns the original id.
            assert assigned[uid] == iid
        else:
            # Dense: ids are consecutive ints in first-seen order.
            assert iid == len(assigned)
            assigned[uid] = iid
        # Round-trip both ways.
        assert interner.uid_of(iid) == uid
        assert interner.lookup(uid) == iid
    # Collision-free: distinct uids got distinct ids.
    assert len(set(assigned.values())) == len(assigned)
    assert len(interner) == len(assigned)


@given(uids=st.lists(_uids, max_size=100))
@settings(max_examples=50, deadline=None)
def test_intern_payload_caches_dense_id(uids):
    interner = UidInterner()
    for uid in uids:
        payload = Payload(uid, 64)
        assert payload.iid is None
        iid = interner.intern_payload(payload)
        assert payload.iid == iid
        assert interner.intern(uid) == iid


# -- seen-cache equivalence --------------------------------------------------


@given(
    uids=st.lists(_uids, max_size=300),
    capacity=st.integers(min_value=1, max_value=32),
    fresh_payload=st.lists(st.booleans(), max_size=300),
)
@settings(max_examples=150, deadline=None)
def test_interned_seen_cache_matches_dict_cache(uids, capacity, fresh_payload):
    """Same verdicts, counters and membership on any trace.

    Each step registers through ``register_payload`` with either a fresh
    Payload (exercising the interning branch) or one whose ``iid`` was
    cached by a previous hop (the fast branch), chosen by the
    ``fresh_payload`` flags.
    """
    interner = UidInterner()
    reference = RecentlySeenCache(capacity)
    interned = InternedSeenCache(capacity, interner)
    cached_payloads = {}
    flags = iter(fresh_payload)
    for uid in uids:
        use_fresh = next(flags, True)
        if use_fresh or uid not in cached_payloads:
            payload = Payload(uid, 64)
            cached_payloads[uid] = payload
        else:
            payload = cached_payloads[uid]
        assert (interned.register_payload(payload)
                == reference.register_payload(Payload(uid, 64)))
        assert len(interned) == len(reference)
    assert interned.registered == reference.registered
    assert interned.hits == reference.hits
    assert interned.evictions == reference.evictions
    for uid in set(uids):
        assert (uid in interned) == (uid in reference)

