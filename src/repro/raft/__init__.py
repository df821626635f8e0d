"""Raft over gossip (paper §5.1 extension).

The paper observes that in the absence of failures Raft and Paxos operate
identically — the leader broadcasts values that a majority must
acknowledge — and that "the semantic extensions proposed for the regular
operation of Paxos [are] easily applicable to a gossip-based Raft
deployment". This package substantiates that claim: a Raft implementation
(leader election, log replication, majority commit) that runs over the very
same substrates as :mod:`repro.paxos`, under the very same semantic rules:
:mod:`repro.core` treats an ack as a vote and a commit as a decided prefix.

Correspondence to the paper's Paxos deployment:

=====================  =============================
Paxos                  Raft
=====================  =============================
Phase 1a / 1b          RequestVote / VoteReply
Phase 2a               AppendEntries (one entry each)
Phase 2b               AppendAck
Decision               CommitNotice
coordinator            leader (elected at startup)
=====================  =============================

Like the Paxos deployment, processes learn commits either from a majority
of identical acknowledgements (gossip makes acks visible to everyone) or
from the leader's commit notice.
"""

from repro.raft.messages import (
    LogEntry,
    RequestVote,
    VoteReply,
    AppendEntries,
    AppendAck,
    AggregatedAck,
    CommitNotice,
)
from repro.raft.log import RaftLog
from repro.raft.process import RaftProcess

__all__ = [
    "LogEntry",
    "RequestVote",
    "VoteReply",
    "AppendEntries",
    "AppendAck",
    "AggregatedAck",
    "CommitNotice",
    "RaftLog",
    "RaftProcess",
]
