"""The semantic filtering and aggregation rules in Python: the executable
reference models.

:class:`repro.core.filtering.SemanticFilter` and
:class:`repro.core.aggregation.SemanticAggregator` are compiled
(``repro/sim/_kernel/semantics.c``, beside the learner whose instance table the
filter's per-peer summaries reuse). This is the Python they replaced,
kept verbatim. It lives with the tests because nothing else constructs
it: ``tests/properties/test_semantics_lockstep.py`` drives one stream of
Paxos and Raft votes, aggregates, decisions and commits through a
compiled and a reference filter and aggregator and requires the same
verdicts, summaries, counters and aggregates at every step.
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


def _vote_key_and_mask(payload):
    """(group key, sender bitmask) for votes; (None, None) otherwise.

    A group key is ``(merged type, *vote key, attempt)``, so the aggregate
    is ``key[0](*key[1:-1], mask, key[-1])``.
    """
    kind = type(payload)
    if kind is Phase2b:
        # uid = ("2B", instance, round, sender, attempt)
        return ((Aggregated2b, payload.instance, payload.round,
                 payload.value_id, payload.uid[4]), 1 << payload.sender)
    if kind is Aggregated2b:
        return ((Aggregated2b, payload.instance, payload.round,
                 payload.value_id, payload.attempt), payload.senders)
    if kind is AppendAck:
        # uid = ("ACK", term, index, sender, attempt)
        return ((AggregatedAck, payload.term, payload.index, payload.uid[4]),
                1 << payload.sender)
    if kind is AggregatedAck:
        return ((AggregatedAck, payload.term, payload.index, payload.attempt),
                payload.senders)
    return (None, None)


class SemanticAggregator:
    """Groups identical pending votes into multi-sender votes."""

    __slots__ = ("votes_absorbed", "aggregates_built")

    def __init__(self):
        self.votes_absorbed = 0
        self.aggregates_built = 0

    def aggregate(self, payloads, peer_id):
        """Return the replacement send list (order-preserving)."""
        key_and_mask = _vote_key_and_mask
        keys = []
        groups = {}
        for payload in payloads:
            key, mask = key_and_mask(payload)
            keys.append(key)
            if key is None:
                continue
            group = groups.get(key)
            if group is None:
                groups[key] = [mask, 1]
            else:
                group[0] |= mask
                group[1] += 1

        if not any(group[1] >= 2 for group in groups.values()):
            return payloads

        result = []
        for payload, key in zip(payloads, keys):
            if key is None:
                result.append(payload)
                continue
            group = groups[key]
            if group is None:
                continue  # absorbed into the aggregate emitted earlier
            mask, count = group
            if count < 2:
                result.append(payload)
                continue
            groups[key] = None
            result.append(key[0](*key[1:-1], mask, key[-1]))
            self.aggregates_built += 1
            self.votes_absorbed += count - 1
        return result

    def disaggregate(self, payload):
        """Reconstruct the original votes (reversible rule)."""
        kind = type(payload)
        if kind is Aggregated2b or kind is AggregatedAck:
            return payload.disaggregate()
        return [payload]
