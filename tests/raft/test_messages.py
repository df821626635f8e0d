"""Tests for Raft message identities and sizes."""

from repro.paxos.messages import HEADER_BYTES, Value
from repro.raft.messages import (
    AggregatedAck,
    AppendAck,
    AppendEntries,
    CommitNotice,
    LogEntry,
    RequestVote,
    VoteReply,
)
from tests.conftest import mask


def _entry(index=1, term=1, size=1024):
    return LogEntry(term, index, Value(("v", index), 0, size))


def test_append_entries_size_includes_value():
    msg = AppendEntries(1, 0, 0, 0, _entry(size=1024), 0)
    assert msg.size_bytes == HEADER_BYTES + 1024


def test_append_entries_uid_by_term_index_attempt():
    a = AppendEntries(1, 0, 0, 0, _entry(1), 0)
    b = AppendEntries(1, 0, 0, 0, _entry(1), 0, attempt=1)
    c = AppendEntries(1, 0, 1, 1, _entry(2), 0)
    assert a.uid != b.uid
    assert a.uid != c.uid


def test_ack_uid_unique_per_sender_and_attempt():
    assert AppendAck(1, 1, 2).uid != AppendAck(1, 1, 3).uid
    assert AppendAck(1, 1, 2).uid != AppendAck(1, 1, 2, attempt=1).uid


def test_aggregated_ack_roundtrip():
    agg = AggregatedAck(1, 4, senders=mask(3, 1, 2))
    parts = agg.disaggregate()
    assert [p.sender for p in parts] == [1, 2, 3]
    assert all((p.term, p.index) == (1, 4) for p in parts)
    assert agg.aggregated is True


def test_aggregated_ack_stays_small():
    many = AggregatedAck(1, 4, senders=mask(*range(50)))
    assert many.size_bytes < 2 * AppendAck(1, 4, 0).size_bytes


def test_commit_notice_uid_per_index():
    assert CommitNotice(1, 7).uid == ("CN", 7)
    assert CommitNotice(2, 7).uid == CommitNotice(1, 7).uid


def test_vote_messages():
    rv = RequestVote(1, 0)
    vr = VoteReply(1, 3, granted=True)
    assert rv.size_bytes == HEADER_BYTES
    assert vr.granted is True
    assert rv.uid != RequestVote(1, 0, attempt=1).uid


def test_log_entry_equality():
    assert _entry(1) == _entry(1)
    assert _entry(1) != _entry(2)
