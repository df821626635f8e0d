"""Semantic filtering rules (paper §3.2), for Paxos and Raft alike.

The filter is "a lightweight execution of the consensus protocol on behalf
of a peer": per peer it remembers a summary of what was already sent —
which instances the peer must know the decision of, and which voters it has
seen per vote key, as a sender bitmask (bit *i* for process *i*) — and uses
the summary to drop the votes the peer will disregard. A vote is a key plus
a sender; a decision covers an instance (Paxos) or a prefix (Raft, §5.1):

* Paxos — ``Phase2b`` / ``Aggregated2b`` vote for ``(round, value_id)`` in
  an instance; a ``Decision`` decides its instance.
* Raft — ``AppendAck`` / ``AggregatedAck`` vote for a term at a log index;
  ``CommitNotice.index`` and ``AppendEntries.leader_commit`` decide every
  index up to theirs.

A vote for an instance whose decision was already sent to the peer is
**obsolete** and dropped. The paper's second rule — a vote is **redundant**
once identical votes from a majority of senders were sent to the peer —
needs no branch of its own: the vote that brings its key to a majority
marks the instance (the prefix, for Raft) decided for that peer, so every
later vote for it is dropped as obsolete.

Only votes are ever dropped, exactly as in the paper; decisions, proposals
and client values always pass (decisions additionally update the summary).

Memory is bounded: per peer, vote summaries are deleted the moment the
instance is marked decided, and the decided-instance set is compacted to a
watermark plus a sparse remainder (always empty for Raft's prefixes).
"""

from repro.paxos.messages import Aggregated2b, Decision, Phase2b
from repro.raft.messages import (
    AggregatedAck,
    AppendAck,
    AppendEntries,
    CommitNotice,
)


class _PeerSummary:
    """What one peer is expected to know, based on what we sent to it."""

    __slots__ = ("decided_watermark", "decided_sparse", "vote_senders")

    def __init__(self):
        # Instances <= watermark, plus those in the sparse set, are decided.
        self.decided_watermark = 0
        self.decided_sparse = set()
        #: instance -> vote key -> bitmask of the senders sent.
        self.vote_senders = {}

    def knows_decision(self, instance):
        return instance <= self.decided_watermark or instance in self.decided_sparse

    def mark_decided(self, instance):
        # knows_decision, inline: one frame per mark.
        if instance <= self.decided_watermark or instance in self.decided_sparse:
            return
        self.decided_sparse.add(instance)
        while (self.decided_watermark + 1) in self.decided_sparse:
            self.decided_watermark += 1
            self.decided_sparse.remove(self.decided_watermark)
        self.vote_senders.pop(instance, None)

    def mark_decided_through(self, instance):
        # Each index is marked once, so a prefix costs O(1) per index.
        for j in range(self.decided_watermark + 1, instance + 1):
            self.mark_decided(j)


class SemanticFilter:
    """Per-peer evaluation of the filtering rules."""

    __slots__ = ("majority", "_peers")

    def __init__(self, n):
        self.majority = n // 2 + 1
        self._peers = {}

    def validate(self, payload, peer_id):
        """Return False when ``payload`` must not be sent to ``peer_id``.

        The send path calls this once per (message, peer), so a vote is
        judged in this one frame: summary lookup, decided test and the
        sender-bitmask update are all inline. The type switch is the only
        place that knows either protocol.
        """
        kind = type(payload)
        if kind is Phase2b:
            instance, prefix = payload.instance, False
            key, mask = (payload.round, payload.value_id), 1 << payload.sender
        elif kind is Aggregated2b:
            instance, prefix = payload.instance, False
            key, mask = (payload.round, payload.value_id), payload.senders
        elif kind is Decision:
            instance, prefix, mask = payload.instance, False, None
        elif kind is AppendAck:
            instance, prefix = payload.index, True
            key, mask = payload.term, 1 << payload.sender
        elif kind is AggregatedAck:
            instance, prefix = payload.index, True
            key, mask = payload.term, payload.senders
        elif kind is CommitNotice:
            instance, prefix, mask = payload.index, True, None
        elif kind is AppendEntries:
            # The commit watermark rides on AppendEntries too.
            instance, prefix, mask = payload.leader_commit, True, None
        else:
            return True
        summary = self._peers.get(peer_id)
        if summary is None:
            summary = self._peers[peer_id] = _PeerSummary()
        if mask is not None:
            if (instance <= summary.decided_watermark
                    or instance in summary.decided_sparse):
                return False
            votes = summary.vote_senders.get(instance)
            if votes is None:
                votes = summary.vote_senders[instance] = {}
            sent = votes.get(key, 0) | mask
            if sent.bit_count() < self.majority:
                votes[key] = sent
                return True
            # The peer can now learn the decision from the votes we sent.
        if prefix:
            summary.mark_decided_through(instance)
        else:
            summary.mark_decided(instance)
        return True
