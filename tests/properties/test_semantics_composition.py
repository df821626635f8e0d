"""Property: the composed semantic pipeline never loses decisions.

The gossip send path applies validate() per message and then aggregate()
on the survivors — exactly as a gossip sender's round does. Whatever the
stream of votes and decisions, the peer must still be able to learn every
instance's decision from what actually goes on the wire (after
disaggregation at the receiving end).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.semantics import PaxosSemantics
from repro.paxos.messages import Decision, Phase2b, Value

N = 5
MAJORITY = N // 2 + 1


events = st.lists(
    st.one_of(
        st.tuples(st.just("vote"),
                  st.integers(min_value=1, max_value=3),      # instance
                  st.integers(min_value=0, max_value=N - 1)), # sender
        st.tuples(st.just("decision"),
                  st.integers(min_value=1, max_value=3),
                  st.just(0)),
    ),
    min_size=1,
    max_size=40,
)
batch_sizes = st.lists(st.integers(min_value=1, max_value=6),
                       min_size=1, max_size=40)


@given(schedule=events, batching=batch_sizes)
@settings(max_examples=200, deadline=None)
def test_pipeline_preserves_learnability(schedule, batching):
    hooks = PaxosSemantics(N)
    value = Value("v", 0, 8)

    offered_votes = {}      # instance -> distinct senders offered
    offered_decision = set()
    wire_votes = {}         # instance -> distinct senders on the wire
    wire_decision = set()

    queue = [
        (Phase2b(instance, 1, "v", sender) if kind == "vote"
         else Decision(instance, 1, value))
        for kind, instance, sender in schedule
    ]
    for kind, instance, sender in schedule:
        if kind == "vote":
            offered_votes.setdefault(instance, set()).add(sender)
        else:
            offered_decision.add(instance)

    # Drain the queue in batches, as the send routine would.
    cursor = 0
    batch_index = 0
    while cursor < len(queue):
        size = batching[batch_index % len(batching)]
        batch_index += 1
        batch = queue[cursor:cursor + size]
        cursor += size
        survivors = [m for m in batch if hooks.validate(m, peer_id=9)]
        sent = (hooks.aggregate(survivors, peer_id=9)
                if len(survivors) > 1 else survivors)
        # The peer disaggregates what it receives.
        for message in sent:
            parts = (hooks.disaggregate(message)
                     if message.aggregated else [message])
            for part in parts:
                if type(part) is Phase2b:
                    wire_votes.setdefault(part.instance, set()).add(
                        part.sender)
                elif type(part) is Decision:
                    wire_decision.add(part.instance)

    for instance in set(offered_votes) | offered_decision:
        could_learn = (instance in offered_decision
                       or len(offered_votes.get(instance, ())) >= MAJORITY)
        learned = (instance in wire_decision
                   or len(wire_votes.get(instance, ())) >= MAJORITY)
        if could_learn:
            assert learned, (instance, offered_votes.get(instance),
                             wire_votes.get(instance))
