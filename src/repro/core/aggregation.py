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

The aggregator is compiled (``repro/sim/_kernel/semantics.c``; the vote
classes are registered by :mod:`repro.core.filtering`, which the package
imports first), and a gossip node whose aggregate hook is an aggregator's
calls it without entering Python. The Python it replaced is the reference
model in ``tests/reference/rules.py``.
"""

from repro.sim.events import compiled

SemanticAggregator = compiled.SemanticAggregator
