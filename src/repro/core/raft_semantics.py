"""Semantic Gossip rules for Raft (paper §5.1 applied).

The translation of the paper's Paxos rules is direct:

* **filtering** — an AppendAck for index i is *obsolete* for a peer that
  was already sent a CommitNotice (or an AppendEntries whose
  ``leader_commit``) covering i; it is *redundant* once identical acks
  from a majority of senders were sent to that peer. Commitment is a
  watermark, so per-peer state is a single integer plus the ack-sender
  bitmasks of uncommitted indices — even cheaper than the Paxos summary.
* **aggregation** — acks for the same (term, index) differing only by
  sender merge into one :class:`repro.raft.messages.AggregatedAck`
  (reversible): the rule of :mod:`repro.core.aggregation`, handed Raft's
  notion of a vote.

As required by the paper's modularity principle, nothing here changes the
Raft implementation; these are hooks of the gossip layer.
"""

from repro.core.filtering import FilterStats
from repro.core.semantics import PaxosSemantics
from repro.raft.messages import (
    AggregatedAck,
    AppendAck,
    AppendEntries,
    CommitNotice,
)


class _RaftPeerSummary:
    __slots__ = ("commit_watermark", "ack_senders")

    def __init__(self):
        self.commit_watermark = 0
        #: (term, index) -> bitmask of the senders whose acks were sent.
        self.ack_senders = {}

    def raise_watermark(self, index):
        if index > self.commit_watermark:
            self.commit_watermark = index
            for key in [k for k in self.ack_senders if k[1] <= index]:
                del self.ack_senders[key]


class RaftSemanticFilter:
    """Per-peer evaluation of the Raft filtering rules."""

    __slots__ = ("majority", "stats", "_peers")

    def __init__(self, n):
        self.majority = n // 2 + 1
        self.stats = FilterStats()
        self._peers = {}

    def validate(self, payload, peer_id):
        """Return False when ``payload`` must not be sent to ``peer_id``;
        one frame per ack, as :meth:`SemanticFilter.validate`."""
        kind = type(payload)
        if kind is AppendAck:
            mask = 1 << payload.sender
        elif kind is AggregatedAck:
            mask = payload.senders
        elif kind is CommitNotice:
            mask, commit = None, payload.index
        elif kind is AppendEntries:
            # The commit watermark rides on AppendEntries too.
            mask, commit = None, payload.leader_commit
        else:
            return True
        summary = self._peers.get(peer_id)
        if summary is None:
            summary = self._peers[peer_id] = _RaftPeerSummary()
        if mask is None:
            summary.raise_watermark(commit)
            return True
        stats = self.stats
        stats.evaluated += 1
        index = payload.index
        if index <= summary.commit_watermark:
            stats.filtered_obsolete += 1
            return False
        key = (payload.term, index)
        sent = summary.ack_senders.get(key, 0)
        if sent.bit_count() >= self.majority:
            stats.filtered_redundant += 1
            return False
        sent |= mask
        summary.ack_senders[key] = sent
        if sent.bit_count() >= self.majority:
            # The peer can now learn the commit from the acks we sent.
            summary.raise_watermark(index)
        stats.passed += 1
        return True


def _ack_key_and_mask(payload):
    """(group key, sender bitmask) for ack messages; (None, None) otherwise."""
    kind = type(payload)
    if kind is AppendAck:
        # uid = ("ACK", term, index, sender, attempt)
        return ((payload.term, payload.index, payload.uid[4]),
                1 << payload.sender)
    if kind is AggregatedAck:
        return ((payload.term, payload.index, payload.attempt),
                payload.senders)
    return (None, None)


class RaftSemantics(PaxosSemantics):
    """validate/aggregate/disaggregate with Raft knowledge: the Paxos
    composition over Raft's filter and Raft's votes."""

    filter_type = RaftSemanticFilter
    aggregator_args = (_ack_key_and_mask, AggregatedAck)
