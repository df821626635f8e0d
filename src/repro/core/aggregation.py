"""Semantic aggregation rule (paper §3.2), for Paxos and Raft alike.

A single, reversible rule: votes pending for the same peer that carry the
same vote key — Phase 2b messages for one instance, round and value, or
Raft acks for one term and index — so they differ only by their senders,
are replaced by one :class:`repro.paxos.messages.Aggregated2b` or
:class:`repro.raft.messages.AggregatedAck` carrying the union of the
senders. The aggregated message takes the list position of the first
message it replaces; messages not prone to aggregation are left untouched
and keep their relative order. Aggregated votes received from elsewhere
participate too ("they can be semantically aggregated again").

The rule is opportunistic: it only does anything when the send routine has
accumulated several pending messages, i.e. under moderate-to-high load —
and, unlike batching, it never delays a send (paper §3.2).
"""

from repro.paxos.messages import Aggregated2b, Phase2b
from repro.raft.messages import AggregatedAck, AppendAck


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
