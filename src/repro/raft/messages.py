"""Raft message types.

Like the Paxos messages, every type subclasses
:class:`repro.net.message.Payload` with a protocol-defined unique id (and
an ``attempt`` tag on retransmittable messages so gossip's duplicate
suppression never swallows a retransmission).
"""

from repro.net.message import Payload
from repro.paxos.messages import HEADER_BYTES, mask_senders


class LogEntry:
    """One replicated log slot: (term, index, value)."""

    __slots__ = ("term", "index", "value")

    def __init__(self, term, index, value):
        self.term = term
        self.index = index
        self.value = value

    def __eq__(self, other):
        return (isinstance(other, LogEntry)
                and (self.term, self.index, self.value)
                == (other.term, other.index, other.value))

    def __repr__(self):
        return "LogEntry(term={}, index={}, value={!r})".format(
            self.term, self.index, self.value)


class RequestVote(Payload):
    """Candidate solicits votes for ``term`` (startup leader election)."""

    __slots__ = ("term", "candidate", "last_log_index", "last_log_term")

    def __init__(self, term, candidate, last_log_index=0, last_log_term=0,
                 attempt=0):
        super().__init__(("RV", term, candidate, attempt), HEADER_BYTES)
        self.term = term
        self.candidate = candidate
        self.last_log_index = last_log_index
        self.last_log_term = last_log_term


class VoteReply(Payload):
    """A process grants (or refuses) its vote for ``term``."""

    __slots__ = ("term", "voter", "granted")

    def __init__(self, term, voter, granted, attempt=0):
        super().__init__(("VR", term, voter, attempt), HEADER_BYTES)
        self.term = term
        self.voter = voter
        self.granted = granted


class AppendEntries(Payload):
    """Leader replicates one log entry (plus its commit watermark).

    The deployment appends one entry per client value — the same
    one-value-per-instance arrangement as the Paxos setup — so the uid is
    keyed by (term, index).
    """

    __slots__ = ("term", "leader", "prev_index", "prev_term", "entry",
                 "leader_commit")

    def __init__(self, term, leader, prev_index, prev_term, entry,
                 leader_commit, attempt=0):
        super().__init__(("AE", term, entry.index, attempt),
                         HEADER_BYTES + entry.value.size_bytes)
        self.term = term
        self.leader = leader
        self.prev_index = prev_index
        self.prev_term = prev_term
        self.entry = entry
        self.leader_commit = leader_commit


class AppendAck(Payload):
    """Follower ``sender`` stored the entry at (term, index).

    The Raft analogue of Phase 2b: broadcast over gossip so every process
    can count acknowledgements and learn commits without waiting for the
    leader.
    """

    __slots__ = ("term", "index", "sender")

    def __init__(self, term, index, sender, attempt=0):
        super().__init__(("ACK", term, index, sender, attempt), HEADER_BYTES)
        self.term = term
        self.index = index
        self.sender = sender


class AggregatedAck(Payload):
    """Multiple identical acks merged by semantic aggregation (reversible).

    ``senders`` is the sender bitmask: bit *i* is set when process *i*
    acknowledged.
    """

    __slots__ = ("term", "index", "senders", "attempt")

    aggregated = True

    def __init__(self, term, index, senders, attempt=0):
        super().__init__(("AACK", term, index, senders, attempt),
                         HEADER_BYTES + 8 + senders.bit_count() // 8)
        self.term = term
        self.index = index
        self.senders = senders
        self.attempt = attempt

    def disaggregate(self):
        """Reconstruct the original acks, ascending by sender."""
        return [AppendAck(self.term, self.index, sender, self.attempt)
                for sender in mask_senders(self.senders)]


class CommitNotice(Payload):
    """Leader announces that entries up to ``index`` are committed.

    The Raft analogue of the Paxos Decision message (in standard Raft the
    commit watermark rides on the next AppendEntries; an explicit notice
    keeps the correspondence with the paper's filtering rules exact).
    """

    __slots__ = ("term", "index")

    def __init__(self, term, index):
        super().__init__(("CN", index), HEADER_BYTES)
        self.term = term
        self.index = index
