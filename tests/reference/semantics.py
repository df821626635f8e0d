"""Set-based vote bookkeeping: the executable reference models.

These are the structures the sender-bitmask code in ``repro.core`` and
the Python learner (tests/reference/replica.py) replaced:
aggregates that carry a ``frozenset`` of senders, filters that keep a
``set`` per vote key, an aggregator that builds a ``set`` per group and a
learner that counts a ``set`` of voters.
They live with the tests because nothing else constructs them:
``tests/properties/test_vote_mask_props.py`` drives random vote streams
through each pair and demands the same verdicts, counters, aggregates and
decisions.

Both reference filters keep their "redundant" branch and its counter; the
properties assert that it never fires.
"""

from repro.net.message import Payload
from repro.paxos.messages import HEADER_BYTES, Decision, Phase2b
from repro.raft.messages import AppendAck, AppendEntries, CommitNotice
from tests.reference import replica as reference_replica


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


class Aggregated2b(Payload):
    """Multiple identical Phase 2b messages merged by semantic aggregation.

    Reversible (paper §3.2): carries one copy of the vote plus the set of
    senders; :meth:`disaggregate` reconstructs the originals, so Paxos never
    sees this type.
    """

    __slots__ = ("instance", "round", "value_id", "senders", "attempt")

    aggregated = True

    def __init__(self, instance, round_, value_id, senders, attempt=0):
        senders = frozenset(senders)
        size = HEADER_BYTES + 8 + len(senders) // 8  # vote + sender bitmap
        super().__init__(("A2B", instance, round_, value_id, senders, attempt), size)
        self.instance = instance
        self.round = round_
        self.value_id = value_id
        self.senders = senders
        self.attempt = attempt

    def disaggregate(self):
        """Reconstruct the original Phase 2b messages."""
        return [
            Phase2b(self.instance, self.round, self.value_id, sender, self.attempt)
            for sender in sorted(self.senders)
        ]


class AggregatedAck(Payload):
    """Multiple identical acks merged by semantic aggregation (reversible)."""

    __slots__ = ("term", "index", "senders", "attempt")

    aggregated = True

    def __init__(self, term, index, senders, attempt=0):
        senders = frozenset(senders)
        super().__init__(("AACK", term, index, senders, attempt),
                         HEADER_BYTES + 8 + len(senders) // 8)
        self.term = term
        self.index = index
        self.senders = senders
        self.attempt = attempt

    def disaggregate(self):
        return [AppendAck(self.term, self.index, sender, self.attempt)
                for sender in sorted(self.senders)]


# -- Paxos filter --------------------------------------------------------------

class _PeerSummary:
    """What one peer is expected to know, based on what we sent to it."""

    __slots__ = ("decided_watermark", "decided_sparse", "vote_senders")

    def __init__(self):
        # Instances <= watermark, plus those in the sparse set, are decided.
        self.decided_watermark = 0
        self.decided_sparse = set()
        #: instance -> (round, value_id) -> set of sender ids sent.
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

    def _summary(self, peer_id):
        summary = self._peers.get(peer_id)
        if summary is None:
            summary = _PeerSummary()
            self._peers[peer_id] = summary
        return summary

    def validate(self, payload, peer_id):
        """Return False when ``payload`` must not be sent to ``peer_id``."""
        kind = type(payload)
        if kind is Phase2b:
            return self._validate_vote(
                payload.instance, payload.round, payload.value_id,
                (payload.sender,), peer_id,
            )
        if kind is Aggregated2b:
            return self._validate_vote(
                payload.instance, payload.round, payload.value_id,
                payload.senders, peer_id,
            )
        if kind is Decision:
            self._summary(peer_id).mark_decided(payload.instance)
        return True

    def _validate_vote(self, instance, round_, value_id, senders, peer_id):
        stats = self.stats
        stats.evaluated += 1
        summary = self._summary(peer_id)
        if summary.knows_decision(instance):
            stats.filtered_obsolete += 1
            return False
        votes = summary.vote_senders.setdefault(instance, {})
        key = (round_, value_id)
        sent = votes.get(key)
        if sent is None:
            sent = set()
            votes[key] = sent
        if len(sent) >= self.majority:
            stats.filtered_redundant += 1
            return False
        sent.update(senders)
        if len(sent) >= self.majority:
            # The peer can now learn the decision from the votes we sent;
            # any further vote for this instance is redundant.
            summary.mark_decided(instance)
        stats.passed += 1
        return True


# -- Raft filter ---------------------------------------------------------------

class _RaftPeerSummary:
    __slots__ = ("commit_watermark", "ack_senders")

    def __init__(self):
        self.commit_watermark = 0
        #: (term, index) -> senders whose acks were sent to the peer.
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

    def _summary(self, peer_id):
        summary = self._peers.get(peer_id)
        if summary is None:
            summary = _RaftPeerSummary()
            self._peers[peer_id] = summary
        return summary

    def validate(self, payload, peer_id):
        kind = type(payload)
        if kind is AppendAck:
            return self._validate_ack(payload.term, payload.index,
                                      (payload.sender,), peer_id)
        if kind is AggregatedAck:
            return self._validate_ack(payload.term, payload.index,
                                      payload.senders, peer_id)
        if kind is CommitNotice:
            self._summary(peer_id).raise_watermark(payload.index)
        elif kind is AppendEntries:
            # The commit watermark rides on AppendEntries too.
            self._summary(peer_id).raise_watermark(payload.leader_commit)
        return True

    def _validate_ack(self, term, index, senders, peer_id):
        stats = self.stats
        stats.evaluated += 1
        summary = self._summary(peer_id)
        if index <= summary.commit_watermark:
            stats.filtered_obsolete += 1
            return False
        key = (term, index)
        sent = summary.ack_senders.get(key)
        if sent is None:
            sent = set()
            summary.ack_senders[key] = sent
        if len(sent) >= self.majority:
            stats.filtered_redundant += 1
            return False
        sent.update(senders)
        if len(sent) >= self.majority:
            # The peer can now learn the commit from the acks we sent.
            summary.raise_watermark(index)
        stats.passed += 1
        return True


# -- aggregator ----------------------------------------------------------------

def _vote_key_and_senders(payload):
    """(group key, senders) for vote messages; (None, None) otherwise."""
    kind = type(payload)
    if kind is Phase2b:
        # uid = ("2B", instance, round, sender, attempt)
        return ((payload.instance, payload.round, payload.value_id,
                 payload.uid[4]), (payload.sender,))
    if kind is Aggregated2b:
        return ((payload.instance, payload.round, payload.value_id,
                 payload.attempt), payload.senders)
    return (None, None)


def _ack_key_and_senders(payload):
    """(group key, senders) for ack messages; (None, None) otherwise."""
    kind = type(payload)
    if kind is AppendAck:
        # uid = ("ACK", term, index, sender, attempt)
        return ((payload.term, payload.index, payload.uid[4]),
                (payload.sender,))
    if kind is AggregatedAck:
        return ((payload.term, payload.index, payload.attempt),
                payload.senders)
    return (None, None)


class SemanticAggregator:
    """Groups identical pending votes into multi-sender votes."""

    __slots__ = ("votes_absorbed", "aggregates_built",
                 "_key_and_senders", "_merged")

    def __init__(self, key_and_senders=_vote_key_and_senders,
                 merged=Aggregated2b):
        self.votes_absorbed = 0
        self.aggregates_built = 0
        self._key_and_senders = key_and_senders
        self._merged = merged

    def aggregate(self, payloads, peer_id):
        """Return the replacement send list (order-preserving)."""
        key_and_senders = self._key_and_senders
        keys = []
        groups = {}
        for payload in payloads:
            key, senders = key_and_senders(payload)
            keys.append(key)
            if key is None:
                continue
            group = groups.get(key)
            if group is None:
                groups[key] = [set(senders), 1]
            else:
                group[0].update(senders)
                group[1] += 1

        if not any(group[1] >= 2 for group in groups.values()):
            return payloads

        result = []
        emitted = set()
        for payload, key in zip(payloads, keys):
            if key is None:
                result.append(payload)
                continue
            senders, count = groups[key]
            if count < 2:
                result.append(payload)
                continue
            if key in emitted:
                continue  # absorbed into the aggregate emitted earlier
            emitted.add(key)
            result.append(self._merged(*key[:-1], senders, key[-1]))
            self.aggregates_built += 1
            self.votes_absorbed += count - 1
        return result

    def disaggregate(self, payload):
        """Reconstruct the original votes (reversible rule)."""
        if type(payload) is self._merged:
            return payload.disaggregate()
        return [payload]


def raft_aggregator():
    """The aggregator as the set-based Raft semantics configured it."""
    return SemanticAggregator(_ack_key_and_senders, AggregatedAck)


# -- learner -------------------------------------------------------------------

class Learner(reference_replica.Learner):
    """The learner whose Phase 2b count is a set of voters."""

    __slots__ = ()

    def on_phase2b(self, msg):
        """Count a vote; returns newly decided ``(instance, value)`` or None."""
        if msg.instance in self.decided or msg.instance <= self._forgotten:
            return None
        state = self._state(msg.instance)
        key = (msg.round, msg.value_id)
        voters = state.votes.get(key)
        if voters is None:
            voters = set()
            state.votes[key] = voters
        voters.add(msg.sender)
        if len(voters) >= self.majority and state.decided_value_id is None:
            state.decided_value_id = msg.value_id
            if self.on_quorum is not None:
                self.on_quorum(msg.instance, msg.value_id)
            if msg.value_id in state.values:
                return self._finalize(msg.instance, state, by_majority=True)
        return None
