"""Differential properties: sender bitmasks against the set-based reference.

Every set of voters on the semantic send path is an ``int`` whose bit *i*
stands for process *i*. The code it replaced kept Python sets; that code
lives on verbatim in :mod:`tests.core.reference_semantics`. Random
multi-peer, multi-instance, multi-round streams run through both, the way
``_PeerSender._pump`` runs a batch: validate each message for the peer,
aggregate the survivors, then the peer disaggregates what arrives and
(Paxos) hands the parts to its learner. One ``SemanticFilter`` and one
``SemanticAggregator`` serve both protocols; the reference keeps a filter
and an aggregator configuration per protocol. Everything observable must
coincide: per-call verdicts, the aggregate lists (order, types, senders,
sizes), disaggregation order, aggregator counters and learner decisions.

The reference filters still count "redundant" votes — a vote for a key
already sent to the peer by a majority. After every example that count is
0: reaching a majority marks the instance decided, so such a vote is always
dropped as obsolete first, and the filter needs no redundant branch.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import SemanticAggregator
from repro.core.filtering import SemanticFilter
from repro.paxos.learner import Learner
from repro.paxos.messages import (Aggregated2b, Decision, Phase2a, Phase2b,
                                  Value, mask_senders)
from repro.raft.messages import (AggregatedAck, AppendAck, AppendEntries,
                                 CommitNotice, LogEntry)
from tests.conftest import mask
from tests.core import reference_semantics as ref

N = 7
VALUES = {vid: Value(vid, 0, 8) for vid in "xy"}

peers = st.integers(min_value=0, max_value=2)
instances = st.integers(min_value=1, max_value=4)
rounds = st.integers(min_value=1, max_value=2)
value_ids = st.sampled_from(sorted(VALUES))
senders = st.integers(min_value=0, max_value=N - 1)
sender_sets = st.frozensets(senders, min_size=1)
attempts = st.integers(min_value=0, max_value=1)


def _pair(message):
    """A message both pipelines receive as the very same object."""
    return (message, message)


paxos_messages = st.one_of(
    st.builds(lambda i, r, v, s, a: _pair(Phase2b(i, r, v, s, a)),
              instances, rounds, value_ids, senders, attempts),
    st.builds(lambda i, r, v, s, a: (Aggregated2b(i, r, v, mask(*s), a),
                                     ref.Aggregated2b(i, r, v, s, a)),
              instances, rounds, value_ids, sender_sets, attempts),
    st.builds(lambda i, r, v: _pair(Decision(i, r, VALUES[v])),
              instances, rounds, value_ids),
    st.builds(lambda i, r, v: _pair(Phase2a(i, r, VALUES[v])),
              instances, rounds, value_ids),
)

raft_messages = st.one_of(
    st.builds(lambda t, i, s, a: _pair(AppendAck(t, i, s, a)),
              rounds, instances, senders, attempts),
    st.builds(lambda t, i, s, a: (AggregatedAck(t, i, mask(*s), a),
                                  ref.AggregatedAck(t, i, s, a)),
              rounds, instances, sender_sets, attempts),
    st.builds(lambda t, i: _pair(CommitNotice(t, i)), rounds, instances),
    st.builds(lambda t, i, c: _pair(AppendEntries(
        t, 0, i - 1, t, LogEntry(t, i, VALUES["x"]), c)),
        rounds, instances, st.integers(min_value=0, max_value=4)),
)


def _batches(messages):
    """(peer, pending batch) pairs, as a send routine drains them."""
    return st.lists(st.tuples(peers, st.lists(messages, min_size=1,
                                              max_size=8)),
                    max_size=12)


def _shape(message):
    """What a message is, independent of how its senders are held."""
    if not message.aggregated:
        return (type(message).__name__, message.uid)
    held = message.senders
    ids = mask_senders(held) if isinstance(held, int) else sorted(held)
    # uid = (kind, *vote key, senders, attempt)
    return (type(message).__name__, message.uid[:-2], ids,
            message.uid[-1], message.size_bytes)


def _send(peer, batch, mine, theirs):
    """Run one batch through both pipelines; returns the received parts."""
    kept_mine, kept_theirs = [], []
    for message, reference in batch:
        verdict = mine["filter"].validate(message, peer)
        assert verdict == theirs["filter"].validate(reference, peer)
        if verdict:
            kept_mine.append(message)
            kept_theirs.append(reference)
    if len(kept_mine) > 1:
        out_mine = mine["aggregator"].aggregate(kept_mine, peer)
        out_theirs = theirs["aggregator"].aggregate(kept_theirs, peer)
        assert (out_mine is kept_mine) == (out_theirs is kept_theirs)
    else:
        out_mine, out_theirs = kept_mine, kept_theirs
    assert [_shape(m) for m in out_mine] == [_shape(m) for m in out_theirs]
    parts = []
    for message, reference in zip(out_mine, out_theirs):
        mine_parts = mine["aggregator"].disaggregate(message)
        their_parts = theirs["aggregator"].disaggregate(reference)
        assert [p.uid for p in mine_parts] == [p.uid for p in their_parts]
        parts.extend(mine_parts)
    return parts


def _check_counters(mine, theirs):
    assert theirs["filter"].stats.filtered_redundant == 0
    assert ((mine["aggregator"].votes_absorbed,
             mine["aggregator"].aggregates_built)
            == (theirs["aggregator"].votes_absorbed,
                theirs["aggregator"].aggregates_built))


def _learn(learner, part):
    kind = type(part)
    if kind is Phase2b:
        return learner.on_phase2b(part)
    if kind is Decision:
        return learner.on_decision(part)
    if kind is Phase2a:
        return learner.on_phase2a(part)
    return None


@given(batches=_batches(paxos_messages))
@settings(max_examples=400, deadline=None)
def test_paxos_masks_match_the_set_reference(batches):
    mine = {"filter": SemanticFilter(N), "aggregator": SemanticAggregator()}
    theirs = {"filter": ref.SemanticFilter(N),
              "aggregator": ref.SemanticAggregator()}
    learners, reference_learners = {}, {}
    quorums, reference_quorums = [], []
    for peer, batch in batches:
        if peer not in learners:
            learners[peer] = Learner(N)
            learners[peer].on_quorum = lambda *q: quorums.append(q)
            reference_learners[peer] = ref.Learner(N)
            reference_learners[peer].on_quorum = (
                lambda *q: reference_quorums.append(q))
        for part in _send(peer, batch, mine, theirs):
            assert (_learn(learners[peer], part)
                    == _learn(reference_learners[peer], part))
    _check_counters(mine, theirs)
    assert quorums == reference_quorums
    for peer, learner in learners.items():
        reference = reference_learners[peer]
        assert learner.decided == reference.decided
        assert ((learner.decided_by_majority, learner.decided_by_message)
                == (reference.decided_by_majority,
                    reference.decided_by_message))


@given(batches=_batches(raft_messages))
@settings(max_examples=400, deadline=None)
def test_raft_masks_match_the_set_reference(batches):
    mine = {"filter": SemanticFilter(N), "aggregator": SemanticAggregator()}
    theirs = {"filter": ref.RaftSemanticFilter(N),
              "aggregator": ref.raft_aggregator()}
    for peer, batch in batches:
        _send(peer, batch, mine, theirs)
    _check_counters(mine, theirs)
