"""Lockstep property: the compiled semantic filter and aggregator against
their Python models.

:class:`repro.core.filtering.SemanticFilter` and
:class:`repro.core.aggregation.SemanticAggregator` are compiled; the
Python they replaced is ``tests/reference/rules.py``. The property
builds one filter and one aggregator of each kind for n processes,
drives one random stream of sends through both and requires at every
step:

* the same verdict of every ``validate`` and the same peer summary
  afterwards: the decided watermark, the sparse decided instances and
  every undecided instance's sent senders per vote key;
* the same ``aggregate`` result, each message described by its class,
  uid, size and fields (the input list itself when nothing merges, on
  both sides), the same ``disaggregate`` of every aggregate, and the
  same ``votes_absorbed`` and ``aggregates_built``.

n is 1, 4, 13, 100 or 1000, so sender bitsets span one word, two and
sixteen, and senders are drawn at the word boundaries too. The stream
interleaves four peers (two spelled as large ints, which are distinct
objects wherever they are equal) and mixes Paxos and Raft: Phase 2b
votes and aggregated votes over a few instances, rounds, value ids and
attempts, Decisions, acks and aggregated acks, CommitNotices and
AppendEntries' commit watermarks, and messages that are none of these.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import SemanticAggregator
from repro.core.filtering import SemanticFilter
from repro.net.message import RawPayload
from repro.paxos.messages import Aggregated2b, Decision, Phase2a, Phase2b, Value
from repro.raft.messages import (
    AggregatedAck,
    AppendAck,
    AppendEntries,
    CommitNotice,
    LogEntry,
)
from tests.reference import rules
from tests.reference.lockstep import describe, lockstep

SIZES = (1, 4, 13, 100, 1000)
#: Peer ids, spelled so that every use builds its own int object.
PEERS = ("0", "3", "300", "70000")
VALUE = Value(("c", 1), client_id=0, size_bytes=10)
VALUE_IDS = ("v", ("c", 1), ("c", 2))
def build(spec):
    """A fresh message from its spec."""
    kind, args = spec[0], spec[1:]
    if kind == "2b":
        return Phase2b(*args)
    if kind == "a2b":
        return Aggregated2b(*args)
    if kind == "decision":
        return Decision(args[0], 1, VALUE)
    if kind == "ack":
        return AppendAck(*args)
    if kind == "aack":
        return AggregatedAck(*args)
    if kind == "commit":
        return CommitNotice(*args)
    if kind == "append":
        term, index, commit = args
        return AppendEntries(term, 0, index - 1, term,
                             LogEntry(term, index, VALUE), commit)
    if kind == "2a":
        return Phase2a(args[0], 1, VALUE)
    return RawPayload(("raw", args[0]), 10)


@st.composite
def scenarios(draw):
    n = draw(st.sampled_from(SIZES))
    edges = [s for s in (63, 64, 65, 127, 128, n - 1) if s < n]
    sender = st.one_of(st.integers(0, min(n - 1, 4)), st.integers(0, n - 1),
                       st.sampled_from(edges))
    mask = st.sets(sender, min_size=1, max_size=6).map(
        lambda senders: sum(1 << s for s in senders))
    instance = st.integers(1, 6)
    round_ = st.integers(1, 2)
    attempt = st.integers(0, 1)
    message = st.one_of(
        st.tuples(st.just("2b"), instance, round_,
                  st.sampled_from(VALUE_IDS), sender, attempt),
        st.tuples(st.just("a2b"), instance, round_,
                  st.sampled_from(VALUE_IDS), mask, attempt),
        st.tuples(st.just("decision"), instance),
        st.tuples(st.just("ack"), round_, instance, sender, attempt),
        st.tuples(st.just("aack"), round_, instance, mask, attempt),
        st.tuples(st.just("commit"), round_, st.integers(0, 7)),
        st.tuples(st.just("append"), round_, instance, st.integers(0, 7)),
        st.tuples(st.just("2a"), instance),
        st.tuples(st.just("raw"), st.integers(0, 3)),
    )
    peer = st.integers(0, len(PEERS) - 1)
    op = st.one_of(
        st.tuples(st.just("validate"), message, peer),
        st.tuples(st.just("burst"), st.lists(message, max_size=6), peer),
        st.tuples(st.just("aggregate"), st.lists(message, max_size=12),
                  peer),
    )
    return n, draw(st.lists(op, max_size=40))


def summary_of(reference, peer_id):
    """The reference filter's summary of peer_id, as the compiled one
    reports it."""
    summary = reference._peers.get(peer_id)
    if summary is None:
        return None
    return (summary.decided_watermark, tuple(sorted(summary.decided_sparse)),
            summary.vote_senders)


def run_op(filt, aggregator, op):
    kind, arg, peer = op
    peer_id = int(PEERS[peer])
    if kind == "validate":
        return [filt.validate(build(arg), peer_id)]
    if kind == "burst":
        # A pump's validate loop: one peer, one batch.
        return [filt.validate(build(spec), peer_id) for spec in arg]
    batch = [build(spec) for spec in arg]
    result = aggregator.aggregate(batch, peer_id)
    merged = [describe(p) for p in result]
    parts = [[describe(q) for q in aggregator.disaggregate(p)]
             for p in result]
    return [result is batch, merged, parts]


def _state(side):
    """Every peer's summary, as the compiled filter reports it, and the
    aggregator's counters."""
    filt, aggregator = side
    if isinstance(filt, SemanticFilter):
        summaries = [filt.summary(int(peer)) for peer in PEERS]
    else:
        summaries = [summary_of(filt, int(peer)) for peer in PEERS]
    return summaries, aggregator.votes_absorbed, aggregator.aggregates_built


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_semantics_match_their_reference_in_lockstep(scenario):
    n, ops = scenario
    mine = (SemanticFilter(n), SemanticAggregator())
    theirs = (rules.SemanticFilter(n),
              rules.SemanticAggregator())
    assert mine[0].majority == theirs[0].majority
    lockstep([mine, theirs], ops, lambda side, op: run_op(*side, op),
             _state)


def test_the_models_are_what_the_property_needs():
    """The compiled side really is compiled and the reference side really
    is Python."""
    assert type(SemanticFilter(4)).__module__ == "repro.core.filtering"
    assert not hasattr(SemanticFilter(4), "__dict__")
    assert SemanticFilter.validate.__class__.__name__ == "method_descriptor"
    assert rules.SemanticFilter.validate.__class__ is type(
        test_the_models_are_what_the_property_needs)
