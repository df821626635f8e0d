"""Semantic Gossip — the paper's contribution (§3).

This package augments the classic gossip layer with consensus awareness,
without touching the protocol implementations. One rule set serves Paxos
(and S-Paxos) and Raft (§5.1): a vote is a Phase 2b or an ack, a decision
is a Decision or a commit.

* :class:`SemanticFilter` — the paper's semantic *filtering* rules: votes
  are not forwarded to a peer that is already expected to know the
  instance's decision (because a decision was sent to it, or because
  identical votes from a majority of senders were).
* :class:`SemanticAggregator` — the paper's semantic *aggregation* rule:
  pending identical votes differing only by sender are replaced by a
  single multi-sender vote (reversible).
* :class:`PaxosSemantics` — the :class:`repro.gossip.SemanticHooks`
  implementation combining both techniques (each independently switchable,
  for the ablation study), installed for either protocol.
* :class:`BatchingHooks` — a network-level batching comparator, which the
  paper contrasts with semantic aggregation in §3.2.
"""

from repro.core.filtering import SemanticFilter
from repro.core.aggregation import SemanticAggregator
from repro.core.semantics import PaxosSemantics
from repro.core.batching import BatchingHooks, Batch

__all__ = [
    "SemanticFilter",
    "SemanticAggregator",
    "PaxosSemantics",
    "BatchingHooks",
    "Batch",
]
