"""Tests for the learner role."""

import pytest

from repro.paxos.learner import Learner
from repro.paxos.messages import Decision, Phase2a, Phase2b, Value


def _value(vid="v"):
    return Value(vid, client_id=0, size_bytes=10)


def _votes(instance, round_, vid, senders):
    return [Phase2b(instance, round_, vid, s) for s in senders]


def test_majority_size():
    assert Learner(5).majority == 3
    assert Learner(13).majority == 7
    assert Learner(4).majority == 3


def test_decision_by_majority_of_votes():
    learner = Learner(5)
    learner.on_phase2a(Phase2a(1, 1, _value()))
    assert learner.on_phase2b(_votes(1, 1, "v", [0])[0]) is None
    assert learner.on_phase2b(_votes(1, 1, "v", [1])[0]) is None
    decided = learner.on_phase2b(_votes(1, 1, "v", [2])[0])
    assert decided == (1, _value())
    assert learner.decided_by_majority == 1


def test_duplicate_votes_do_not_count_twice():
    learner = Learner(5)
    learner.on_phase2a(Phase2a(1, 1, _value()))
    vote = Phase2b(1, 1, "v", 0)
    for _ in range(5):
        assert learner.on_phase2b(vote) is None


def test_votes_for_different_values_do_not_mix():
    learner = Learner(5)
    learner.on_phase2a(Phase2a(1, 1, _value("a")))
    learner.on_phase2b(Phase2b(1, 1, "a", 0))
    learner.on_phase2b(Phase2b(1, 1, "b", 1))
    assert learner.on_phase2b(Phase2b(1, 1, "b", 2)) is None
    assert learner.on_phase2b(Phase2b(1, 1, "a", 3)) is None
    assert learner.on_phase2b(Phase2b(1, 1, "a", 4)) == (1, _value("a"))


def test_votes_for_different_rounds_do_not_mix():
    learner = Learner(5)
    learner.on_phase2a(Phase2a(1, 2, _value()))
    learner.on_phase2b(Phase2b(1, 1, "v", 0))
    learner.on_phase2b(Phase2b(1, 1, "v", 1))
    learner.on_phase2b(Phase2b(1, 2, "v", 2))
    learner.on_phase2b(Phase2b(1, 2, "v", 3))
    assert learner.on_phase2b(Phase2b(1, 2, "v", 4)) == (1, _value())


def test_majority_without_value_content_stays_pending():
    """Votes carry only the value id; the decision completes when the
    Phase 2a (or Decision) supplies the value."""
    learner = Learner(3)
    assert learner.on_phase2b(Phase2b(1, 1, "v", 0)) is None
    assert learner.on_phase2b(Phase2b(1, 1, "v", 1)) is None  # majority, no value
    assert not learner.is_decided(1)
    decided = learner.on_phase2a(Phase2a(1, 1, _value()))
    assert decided == (1, _value())
    assert learner.decided_by_majority == 1


def test_decision_message_decides_immediately():
    learner = Learner(5)
    decided = learner.on_decision(Decision(3, 1, _value()))
    assert decided == (3, _value())
    assert learner.decided_by_message == 1


def test_decision_idempotent():
    learner = Learner(5)
    learner.on_decision(Decision(3, 1, _value()))
    assert learner.on_decision(Decision(3, 1, _value())) is None


def test_votes_after_decision_ignored():
    learner = Learner(3)
    learner.on_decision(Decision(1, 1, _value()))
    assert learner.on_phase2b(Phase2b(1, 1, "v", 0)) is None


def test_pending_decision_completed_by_decision_message():
    learner = Learner(3)
    learner.on_phase2b(Phase2b(1, 1, "v", 0))
    learner.on_phase2b(Phase2b(1, 1, "v", 1))
    decided = learner.on_decision(Decision(1, 1, _value()))
    assert decided == (1, _value())
    # Counted as decided-by-message: the Decision supplied the value.
    assert learner.decided_by_message == 1


def test_forget_blocks_stale_instances():
    learner = Learner(3)
    learner.on_decision(Decision(1, 1, _value()))
    learner.forget_up_to(5)
    assert learner.on_phase2b(Phase2b(4, 1, "v", 0)) is None
    assert learner.on_decision(Decision(5, 1, _value())) is None
    # Higher instances still work.
    assert learner.on_decision(Decision(6, 1, _value())) == (6, _value())


def test_independent_instances():
    learner = Learner(3)
    learner.on_phase2a(Phase2a(1, 1, _value("a")))
    learner.on_phase2a(Phase2a(2, 1, _value("b")))
    learner.on_phase2b(Phase2b(1, 1, "a", 0))
    learner.on_phase2b(Phase2b(2, 1, "b", 0))
    assert learner.on_phase2b(Phase2b(2, 1, "b", 1)) == (2, _value("b"))
    assert learner.on_phase2b(Phase2b(1, 1, "a", 1)) == (1, _value("a"))


def test_votes_from_senders_beyond_n_are_rejected():
    """Seven votes from senders 13-19 once decided an instance at n=13."""
    learner = Learner(13)
    learner.on_phase2a(Phase2a(1, 1, _value()))
    for sender in range(13, 20):
        with pytest.raises(ValueError, match="sender.*13"):
            learner.on_phase2b(Phase2b(1, 1, "v", sender))
    assert not learner.is_decided(1)
    assert learner.decided == {}


def test_vote_from_a_negative_sender_is_rejected_by_name():
    with pytest.raises(ValueError, match="sender.*-1"):
        Learner(13).on_phase2b(Phase2b(1, 1, "v", -1))


def test_majority_of_a_thousand_counts_every_word_of_the_bitset():
    learner = Learner(1000)
    learner.on_phase2a(Phase2a(1, 1, _value()))
    voters = list(range(999, 498, -1))           # 501 senders, 8 words
    for sender in voters[:-1]:
        assert learner.on_phase2b(Phase2b(1, 1, "v", sender)) is None
    assert learner.on_phase2b(Phase2b(1, 1, "v", 999)) is None   # again
    assert learner.on_phase2b(Phase2b(1, 1, "v", voters[-1])) == (
        1, _value())
