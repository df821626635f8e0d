"""Semantic filtering rules for Paxos (paper §3.2).

The filter is "a lightweight execution of the consensus protocol on behalf
of a peer": per peer it remembers a summary of what was already sent —
which instances the peer must know the decision of, and which Phase 2b
senders it has seen per (instance, round, value), as a sender bitmask (bit
*i* for process *i*) — and uses the summary to drop messages the peer will
disregard:

* **obsolete** — a Phase 2b for an instance whose Decision was already
  sent to the peer;
* **redundant** — a Phase 2b for an instance for which identical votes
  from a majority of senders were already sent to the peer (the peer can
  learn the decision from those).

Only Phase 2b traffic is ever dropped, exactly as in the paper; Decisions,
Phase 1a/1b, Phase 2a and client values always pass (Decisions additionally
update the per-peer summary).

Memory is bounded: per peer, vote summaries are deleted the moment the
instance is marked decided, and the decided-instance set is compacted to a
watermark plus a sparse remainder.
"""

from repro.paxos.messages import Aggregated2b, Decision, Phase2b


class FilterStats:
    """Filtering outcome counters (feed the §4.3 message-count analysis)."""

    __slots__ = ("evaluated", "passed", "filtered_obsolete", "filtered_redundant")

    def __init__(self):
        self.evaluated = 0
        self.passed = 0
        self.filtered_obsolete = 0
        self.filtered_redundant = 0

    @property
    def filtered(self):
        return self.filtered_obsolete + self.filtered_redundant


class _PeerSummary:
    """What one peer is expected to know, based on what we sent to it."""

    __slots__ = ("decided_watermark", "decided_sparse", "vote_senders")

    def __init__(self):
        # Instances <= watermark, plus those in the sparse set, are decided.
        self.decided_watermark = 0
        self.decided_sparse = set()
        #: instance -> (round, value_id) -> bitmask of the senders sent.
        self.vote_senders = {}

    def knows_decision(self, instance):
        return instance <= self.decided_watermark or instance in self.decided_sparse

    def mark_decided(self, instance):
        if self.knows_decision(instance):
            return
        self.decided_sparse.add(instance)
        while (self.decided_watermark + 1) in self.decided_sparse:
            self.decided_watermark += 1
            self.decided_sparse.remove(self.decided_watermark)
        self.vote_senders.pop(instance, None)


class SemanticFilter:
    """Per-peer evaluation of the Paxos filtering rules."""

    __slots__ = ("majority", "stats", "_peers")

    def __init__(self, n):
        self.majority = n // 2 + 1
        self.stats = FilterStats()
        self._peers = {}

    def validate(self, payload, peer_id):
        """Return False when ``payload`` must not be sent to ``peer_id``.

        The send path calls this once per (message, peer), so a vote is
        judged in this one frame: summary lookup, decided test and the
        sender-bitmask update are all inline.
        """
        kind = type(payload)
        if kind is Phase2b:
            mask = 1 << payload.sender
        elif kind is Aggregated2b:
            mask = payload.senders
        elif kind is Decision:
            mask = None
        else:
            return True
        summary = self._peers.get(peer_id)
        if summary is None:
            summary = self._peers[peer_id] = _PeerSummary()
        instance = payload.instance
        if mask is None:
            summary.mark_decided(instance)
            return True
        stats = self.stats
        stats.evaluated += 1
        if (instance <= summary.decided_watermark
                or instance in summary.decided_sparse):
            stats.filtered_obsolete += 1
            return False
        votes = summary.vote_senders.get(instance)
        if votes is None:
            votes = summary.vote_senders[instance] = {}
        key = (payload.round, payload.value_id)
        sent = votes.get(key, 0)
        if sent.bit_count() >= self.majority:
            stats.filtered_redundant += 1
            return False
        sent |= mask
        votes[key] = sent
        if sent.bit_count() >= self.majority:
            # The peer can now learn the decision from the votes we sent;
            # any further vote for this instance is redundant.
            summary.mark_decided(instance)
        stats.passed += 1
        return True
