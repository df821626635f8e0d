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

The filter is compiled (``repro/sim/_kernel/semantics.c``): a peer's
summary is the learner's instance table of ``(round, value id, sender
bitset)`` tallies, so a majority is a popcount, and a gossip node whose
validate hook is a filter's calls it without entering Python. Senders
are process ids in ``[0, n)``; the Python it replaced is the reference
model in ``tests/reference/rules.py``. ``summary(peer_id)`` exposes a
peer's summary.
"""

from repro.paxos.messages import Aggregated2b, Decision, Phase2b
from repro.raft.messages import (
    AggregatedAck,
    AppendAck,
    AppendEntries,
    CommitNotice,
)
from repro.sim.events import compiled

# The classes both compiled rules switch on (exactly, as a type switch)
# and whose slots they read.
compiled.register_semantics(Phase2b, Aggregated2b, Decision, AppendAck,
                            AggregatedAck, CommitNotice, AppendEntries)

SemanticFilter = compiled.SemanticFilter
