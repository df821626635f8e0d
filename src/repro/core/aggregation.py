"""Semantic aggregation rule (paper §3.2).

A single, reversible rule: Phase 2b messages pending for the same peer that
refer to the same instance, round and value — so they differ only by their
senders — are replaced by one :class:`repro.paxos.messages.Aggregated2b`
carrying the union of the senders. The aggregated message takes the list
position of the first message it replaces; messages not prone to
aggregation are left untouched and keep their relative order. Aggregated
votes received from elsewhere participate too ("they can be semantically
aggregated again").

The rule is opportunistic: it only does anything when the send routine has
accumulated several pending messages, i.e. under moderate-to-high load —
and, unlike batching, it never delays a send (paper §3.2).

Nothing in the rule is specific to Paxos: a protocol says what its votes
are (a function ``payload -> (key, mask)``, ``(None, None)`` for anything
that is not a vote, where ``mask`` is the sender bitmask — ``1 << sender``
for a single vote) and which message carries a merged vote (constructed as
``merged(*key[:-1], mask, key[-1])``). The defaults are the Paxos pair;
:mod:`repro.core.raft_semantics` supplies Raft's.
"""

from repro.paxos.messages import Aggregated2b, Phase2b


def _vote_key_and_mask(payload):
    """(group key, sender bitmask) for vote messages; (None, None) otherwise."""
    kind = type(payload)
    if kind is Phase2b:
        # uid = ("2B", instance, round, sender, attempt)
        return ((payload.instance, payload.round, payload.value_id,
                 payload.uid[4]), 1 << payload.sender)
    if kind is Aggregated2b:
        return ((payload.instance, payload.round, payload.value_id,
                 payload.attempt), payload.senders)
    return (None, None)


class SemanticAggregator:
    """Groups identical pending votes into multi-sender votes."""

    __slots__ = ("votes_absorbed", "aggregates_built",
                 "_key_and_mask", "_merged")

    def __init__(self, key_and_mask=_vote_key_and_mask, merged=Aggregated2b):
        self.votes_absorbed = 0
        self.aggregates_built = 0
        self._key_and_mask = key_and_mask
        self._merged = merged

    def aggregate(self, payloads, peer_id):
        """Return the replacement send list (order-preserving)."""
        key_and_mask = self._key_and_mask
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
            result.append(self._merged(*key[:-1], mask, key[-1]))
            self.aggregates_built += 1
            self.votes_absorbed += count - 1
        return result

    def disaggregate(self, payload):
        """Reconstruct the original votes (reversible rule)."""
        if type(payload) is self._merged:
            return payload.disaggregate()
        return [payload]
