"""Property-based tests of semantic filtering.

The safety-critical property: filtering must never prevent a peer from
learning a decision. Whatever the send order, the votes that pass the
filter (plus the Decisions) must still let the peer reach a majority — or a
Decision was sent.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.filtering import SemanticFilter
from repro.paxos.messages import Decision, Phase2b, Value

N = 5
MAJORITY = N // 2 + 1


messages = st.lists(
    st.one_of(
        st.tuples(st.just("vote"), st.integers(min_value=0, max_value=N - 1)),
        st.tuples(st.just("decision"), st.just(0)),
    ),
    min_size=1,
    max_size=30,
)


@given(schedule=messages)
@settings(max_examples=300, deadline=None)
def test_peer_can_always_learn_decision(schedule):
    """After any schedule containing a majority of distinct votes (or a
    Decision), the information that PASSED the filter suffices for the
    peer to learn the decision."""
    f = SemanticFilter(N)
    value = Value("v", 0, 8)
    sent_votes = set()
    sent_decision = False
    distinct_offered = set()
    decision_offered = False

    for kind, sender in schedule:
        if kind == "vote":
            distinct_offered.add(sender)
            msg = Phase2b(1, 1, "v", sender)
            if f.validate(msg, peer_id=7):
                sent_votes.add(sender)
        else:
            decision_offered = True
            msg = Decision(1, 1, value)
            if f.validate(msg, peer_id=7):
                sent_decision = True

    peer_learned = sent_decision or len(sent_votes) >= MAJORITY
    peer_could_learn = decision_offered or len(distinct_offered) >= MAJORITY
    if peer_could_learn:
        assert peer_learned


@given(schedule=messages)
@settings(max_examples=300, deadline=None)
def test_filtered_votes_are_truly_redundant(schedule):
    """A vote is only dropped when the peer already knows the decision
    from what was previously sent."""
    f = SemanticFilter(N)
    value = Value("v", 0, 8)
    sent_votes = set()
    sent_decision = False

    for kind, sender in schedule:
        if kind == "vote":
            msg = Phase2b(1, 1, "v", sender)
            if f.validate(msg, peer_id=7):
                sent_votes.add(sender)
            else:
                assert sent_decision or len(sent_votes) >= MAJORITY
        else:
            if f.validate(Decision(1, 1, value), peer_id=7):
                sent_decision = True


@given(
    instances=st.lists(st.integers(min_value=1, max_value=50),
                       min_size=1, max_size=50),
)
@settings(max_examples=100, deadline=None)
def test_watermark_compaction_is_sound(instances):
    """Whatever the decision order, the peer's summary knows exactly the
    decided instances, as a watermark plus the sparse rest."""
    f = SemanticFilter(N)
    value = Value("v", 0, 8)
    decided = set()
    for instance in instances:
        f.validate(Decision(instance, 1, value), peer_id=3)
        decided.add(instance)
    watermark, sparse, votes = f.summary(3)
    for instance in range(1, 52):
        knows = instance <= watermark or instance in sparse
        assert knows == (instance in decided)
    assert watermark + 1 not in sparse and votes == {}
