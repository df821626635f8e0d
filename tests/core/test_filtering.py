"""Tests for the semantic filtering rules (paper §3.2)."""

import pytest

from repro.core.filtering import SemanticFilter
from repro.paxos.messages import (
    Aggregated2b,
    ClientValue,
    Decision,
    Phase1a,
    Phase2a,
    Phase2b,
    Value,
)
from tests.conftest import mask


def _value(vid="v"):
    return Value(vid, client_id=0, size_bytes=10)


def _vote(instance, sender, round_=1, vid="v"):
    return Phase2b(instance, round_, vid, sender)


def test_votes_pass_before_any_knowledge():
    f = SemanticFilter(n=5)
    assert f.validate(_vote(1, 0), peer_id=9)
    assert f.validate(_vote(1, 1), peer_id=9)


def test_decision_makes_votes_obsolete_for_that_peer():
    f = SemanticFilter(n=5)
    assert f.validate(Decision(1, 1, _value()), peer_id=9)
    assert not f.validate(_vote(1, 0), peer_id=9)
    assert not f.validate(_vote(1, 0), peer_id=9)  # still obsolete


def test_filtering_is_per_peer():
    f = SemanticFilter(n=5)
    f.validate(Decision(1, 1, _value()), peer_id=9)
    assert f.validate(_vote(1, 0), peer_id=8)  # other peer still needs it


def test_majority_of_votes_makes_further_votes_redundant():
    f = SemanticFilter(n=5)  # majority = 3
    for sender in range(3):
        assert f.validate(_vote(1, sender), peer_id=9)
    # The majority marked the instance decided for the peer: every later
    # vote, for any round or value, is dropped as obsolete.
    assert f.summary(9)[0] == 1     # the decided watermark
    assert not f.validate(_vote(1, 3), peer_id=9)
    assert not f.validate(_vote(1, 4), peer_id=9)
    assert not f.validate(_vote(1, 4, round_=2, vid="w"), peer_id=9)


def test_duplicate_senders_do_not_reach_majority():
    f = SemanticFilter(n=5)
    assert f.validate(_vote(1, 0), peer_id=9)
    assert f.validate(_vote(1, 1), peer_id=9)
    # Same senders again: still only 2 distinct, and these very votes were
    # counted already, so a third distinct sender must still pass.
    assert f.validate(_vote(1, 2), peer_id=9)


def test_votes_from_different_rounds_counted_separately():
    f = SemanticFilter(n=5)
    f.validate(_vote(1, 0, round_=1), peer_id=9)
    f.validate(_vote(1, 1, round_=1), peer_id=9)
    # Round 2 votes are not identical to round 1 votes.
    assert f.validate(_vote(1, 0, round_=2), peer_id=9)
    assert f.validate(_vote(1, 1, round_=2), peer_id=9)
    assert f.validate(_vote(1, 2, round_=2), peer_id=9)
    # Round 2 reached majority: instance now known-decided for the peer.
    assert not f.validate(_vote(1, 3, round_=1), peer_id=9)


def test_aggregated_votes_count_all_senders():
    f = SemanticFilter(n=5)
    agg = Aggregated2b(1, 1, "v", senders=mask(0, 1, 2))
    assert f.validate(agg, peer_id=9)
    # The aggregate alone reached majority: further votes are redundant.
    assert not f.validate(_vote(1, 4), peer_id=9)


def test_aggregated_vote_filtered_when_peer_knows_decision():
    f = SemanticFilter(n=5)
    f.validate(Decision(1, 1, _value()), peer_id=9)
    assert not f.validate(Aggregated2b(1, 1, "v", senders=mask(0, 1)), peer_id=9)


def test_non_vote_messages_always_pass():
    f = SemanticFilter(n=5)
    f.validate(Decision(1, 1, _value()), peer_id=9)
    assert f.validate(Phase2a(1, 1, _value()), peer_id=9)
    assert f.validate(Phase1a(1, 1, 0), peer_id=9)
    assert f.validate(ClientValue(_value(), 0), peer_id=9)
    assert f.validate(Decision(1, 1, _value()), peer_id=9)  # decisions too


def test_vote_state_cleared_after_decision():
    """Vote summaries are garbage-collected once the peer knows the
    decision, bounding per-peer memory."""
    f = SemanticFilter(n=5)
    f.validate(_vote(1, 0), peer_id=9)
    f.validate(Decision(1, 1, _value()), peer_id=9)
    watermark, sparse, votes = f.summary(9)
    assert 1 not in votes


def test_decided_set_compacts_to_watermark():
    f = SemanticFilter(n=5)
    for instance in (1, 2, 3, 4):
        f.validate(Decision(instance, 1, _value()), peer_id=9)
    watermark, sparse, votes = f.summary(9)
    assert watermark == 4
    assert sparse == ()


def test_out_of_order_decisions_compact_later():
    f = SemanticFilter(n=5)
    f.validate(Decision(3, 1, _value()), peer_id=9)
    watermark, sparse, votes = f.summary(9)
    assert watermark == 0
    assert sparse == (3,)
    f.validate(Decision(1, 1, _value()), peer_id=9)
    f.validate(Decision(2, 1, _value()), peer_id=9)
    watermark, sparse, votes = f.summary(9)
    assert watermark == 3
    assert sparse == ()


def test_a_vote_from_outside_the_processes_is_rejected_by_name():
    """Senders are process ids in [0, n): the bitset is n bits wide."""
    f = SemanticFilter(n=5)
    with pytest.raises(ValueError, match="sender"):
        f.validate(_vote(1, 5), peer_id=9)
    with pytest.raises(ValueError, match="outside"):
        f.validate(Aggregated2b(1, 1, "v", senders=mask(0, 5)), peer_id=9)
    with pytest.raises(ValueError, match="negative"):
        f.validate(Aggregated2b(1, 1, "v", senders=-1), peer_id=9)


def test_a_majority_of_a_thousand_counts_every_word_of_the_bitset():
    f = SemanticFilter(n=1000)   # majority = 501
    senders = list(range(0, 1000, 2))     # 500 votes, across 16 words
    assert f.validate(Aggregated2b(1, 1, "v", senders=mask(*senders)), 9)
    assert f.summary(9)[2] == {1: {(1, "v"): mask(*senders)}}
    assert f.validate(_vote(1, 999), peer_id=9)   # the 501st
    assert f.summary(9) == (1, (), {})
    assert not f.validate(_vote(1, 1), peer_id=9)


def test_no_summary_before_the_first_message_to_a_peer():
    f = SemanticFilter(n=5)
    assert f.summary(9) is None
