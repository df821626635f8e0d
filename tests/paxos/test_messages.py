"""Tests for Paxos message types: identities and sizes."""

from repro.paxos.messages import (
    HEADER_BYTES,
    Aggregated2b,
    ClientValue,
    Decision,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2b,
    Value,
)
from tests.conftest import mask


def _value(vid=("c", 0), size=1024):
    return Value(vid, client_id=0, size_bytes=size)


def test_value_equality_by_id():
    assert _value(("c", 1)) == _value(("c", 1))
    assert _value(("c", 1)) != _value(("c", 2))
    assert hash(_value(("c", 1))) == hash(_value(("c", 1)))


def test_client_value_uid_and_size():
    msg = ClientValue(_value(size=1024), origin=5)
    assert msg.uid == ("V", ("c", 0))
    assert msg.size_bytes == HEADER_BYTES + 1024


def test_phase1a_uid_includes_round_and_attempt():
    a = Phase1a(1, 1, coordinator=0)
    b = Phase1a(1, 1, coordinator=0, attempt=1)
    assert a.uid != b.uid


def test_phase1b_size_accounts_for_accepted_values():
    empty = Phase1b(1, sender=2, accepted=[])
    loaded = Phase1b(1, sender=2, accepted=[(1, 1, _value(size=500))])
    assert empty.size_bytes == HEADER_BYTES
    assert loaded.size_bytes == 2 * HEADER_BYTES + 500


def test_phase2a_carries_value_size():
    msg = Phase2a(3, 1, _value(size=1024))
    assert msg.size_bytes == HEADER_BYTES + 1024
    assert msg.uid == ("2A", 3, 1, 0)


def test_phase2b_uid_unique_per_sender():
    a = Phase2b(1, 1, ("c", 0), sender=3)
    b = Phase2b(1, 1, ("c", 0), sender=4)
    assert a.uid != b.uid
    assert a.size_bytes == HEADER_BYTES


def test_phase2b_retransmission_has_fresh_uid():
    a = Phase2b(1, 1, ("c", 0), sender=3, attempt=0)
    b = Phase2b(1, 1, ("c", 0), sender=3, attempt=1)
    assert a.uid != b.uid


def test_decision_uid_per_instance_only():
    """Retransmitted or re-derived Decisions for an instance dedup."""
    a = Decision(7, 1, _value())
    b = Decision(7, 2, _value())
    assert a.uid == b.uid == ("DEC", 7)


def test_aggregated2b_is_marked_and_small():
    agg = Aggregated2b(1, 1, ("c", 0), senders=mask(2, 3, 4, 5, 6))
    assert agg.aggregated is True
    # "Essentially the same size regardless of the number of votes".
    assert agg.size_bytes < HEADER_BYTES + 16
    single = Phase2b(1, 1, ("c", 0), sender=2)
    assert agg.size_bytes < 5 * single.size_bytes


def test_aggregated2b_disaggregate_reconstructs_originals():
    agg = Aggregated2b(4, 2, ("c", 9), senders=mask(3, 1, 2), attempt=0)
    parts = agg.disaggregate()
    assert [p.sender for p in parts] == [1, 2, 3]
    for part in parts:
        assert part.instance == 4
        assert part.round == 2
        assert part.value_id == ("c", 9)
        assert part.uid == ("2B", 4, 2, part.sender, 0)


def test_aggregated2b_uid_depends_on_sender_set():
    a = Aggregated2b(1, 1, "v", senders=mask(1, 2))
    b = Aggregated2b(1, 1, "v", senders=mask(1, 3))
    assert a.uid != b.uid


def test_all_messages_not_aggregated_except_aggregated2b():
    value = _value()
    assert not ClientValue(value, 0).aggregated
    assert not Phase1a(1, 1, 0).aggregated
    assert not Phase1b(1, 0, []).aggregated
    assert not Phase2a(1, 1, value).aggregated
    assert not Phase2b(1, 1, "v", 0).aggregated
    assert not Decision(1, 1, value).aggregated
