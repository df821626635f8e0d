"""Tests for the semantic aggregation rule (paper §3.2)."""

from repro.core.aggregation import SemanticAggregator
from repro.paxos.messages import Aggregated2b, Decision, Phase2a, Phase2b, Value
from tests.conftest import mask


def _value(vid="v"):
    return Value(vid, client_id=0, size_bytes=10)


def _vote(instance, sender, round_=1, vid="v", attempt=0):
    return Phase2b(instance, round_, vid, sender, attempt)


def test_identical_votes_merge():
    agg = SemanticAggregator()
    result = agg.aggregate([_vote(1, 0), _vote(1, 1), _vote(1, 2)], peer_id=5)
    assert len(result) == 1
    merged = result[0]
    assert type(merged) is Aggregated2b
    assert merged.senders == mask(0, 1, 2)
    assert agg.votes_absorbed == 2
    assert agg.aggregates_built == 1


def test_single_vote_untouched():
    agg = SemanticAggregator()
    votes = [_vote(1, 0)]
    assert agg.aggregate(votes, peer_id=5) is votes


def test_different_instances_not_merged():
    agg = SemanticAggregator()
    result = agg.aggregate([_vote(1, 0), _vote(2, 1)], peer_id=5)
    assert len(result) == 2
    assert all(type(m) is Phase2b for m in result)


def test_different_rounds_not_merged():
    agg = SemanticAggregator()
    result = agg.aggregate([_vote(1, 0, round_=1), _vote(1, 1, round_=2)], 5)
    assert len(result) == 2


def test_different_values_not_merged():
    agg = SemanticAggregator()
    result = agg.aggregate([_vote(1, 0, vid="a"), _vote(1, 1, vid="b")], 5)
    assert len(result) == 2


def test_different_attempts_not_merged():
    agg = SemanticAggregator()
    result = agg.aggregate([_vote(1, 0, attempt=0), _vote(1, 1, attempt=1)], 5)
    assert len(result) == 2


def test_aggregate_takes_position_of_first_member():
    """The aggregated message replaces the first of the originals; other
    messages keep their relative order (paper §3.2)."""
    agg = SemanticAggregator()
    other = Phase2a(9, 1, _value())
    result = agg.aggregate([_vote(1, 0), other, _vote(1, 1)], peer_id=5)
    assert type(result[0]) is Aggregated2b
    assert result[1] is other
    assert len(result) == 2


def test_non_vote_messages_pass_through():
    agg = SemanticAggregator()
    decision = Decision(1, 1, _value())
    proposal = Phase2a(2, 1, _value())
    result = agg.aggregate([decision, proposal], peer_id=5)
    assert result == [decision, proposal]


def test_existing_aggregates_merge_with_singles():
    """Received aggregated votes 'can be semantically aggregated again'."""
    agg = SemanticAggregator()
    existing = Aggregated2b(1, 1, "v", senders=mask(0, 1))
    result = agg.aggregate([existing, _vote(1, 2)], peer_id=5)
    assert len(result) == 1
    assert result[0].senders == mask(0, 1, 2)


def test_multiple_groups_aggregate_independently():
    agg = SemanticAggregator()
    pending = [_vote(1, 0), _vote(2, 0), _vote(1, 1), _vote(2, 1)]
    result = agg.aggregate(pending, peer_id=5)
    assert len(result) == 2
    assert {m.instance for m in result} == {1, 2}
    assert all(m.senders == mask(0, 1) for m in result)


def test_disaggregate_roundtrip():
    agg = SemanticAggregator()
    originals = [_vote(3, s, round_=2, vid="x") for s in (4, 1, 7)]
    (merged,) = agg.aggregate(list(originals), peer_id=5)
    restored = agg.disaggregate(merged)
    assert {(m.instance, m.round, m.value_id, m.sender) for m in restored} == {
        (m.instance, m.round, m.value_id, m.sender) for m in originals
    }
    assert {m.uid for m in restored} == {m.uid for m in originals}


def test_disaggregate_plain_message_is_identity():
    agg = SemanticAggregator()
    vote = _vote(1, 0)
    assert agg.disaggregate(vote) == [vote]


def test_aggregated_size_stays_small():
    agg = SemanticAggregator()
    votes = [_vote(1, s) for s in range(50)]
    (merged,) = agg.aggregate(votes, peer_id=5)
    assert merged.size_bytes < 2 * votes[0].size_bytes
