"""Classic gossip communication substrate (paper §2.2, §3.3).

Push-based epidemic dissemination over an overlay of bi-directional
channels: a broadcast is delivered locally and forwarded to all peers;
received messages are checked against a bounded *recently seen* cache and,
when fresh, delivered to the application and forwarded to every peer except
the one they came from.

The layer exposes the paper's two semantic extension points through
:class:`SemanticHooks` (``validate`` / ``aggregate`` / ``disaggregate``),
implemented for Paxos by :mod:`repro.core`.
"""

from repro.gossip.hooks import SemanticHooks
from repro.gossip.cache import InternedSeenCache
from repro.gossip.node import GossipNode, GossipCosts, GossipStats

__all__ = [
    "SemanticHooks",
    "InternedSeenCache",
    "GossipNode",
    "GossipCosts",
    "GossipStats",
]
