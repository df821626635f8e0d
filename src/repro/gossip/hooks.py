"""Semantic extension interface of the gossip layer (paper §3.3).

The gossip layer offers the consensus protocol two ways to control its
behaviour without being modified itself:

* ``validate(message, peer)`` — semantic filtering. Called by a per-peer
  send routine right before a message would be sent; returning False drops
  the message for that peer.
* ``aggregate(messages, peer)`` / ``disaggregate(message)`` — semantic
  aggregation. ``aggregate`` is called when a send routine has multiple
  pending messages for a peer and may replace groups of them by equivalent
  aggregated messages; ``disaggregate`` is called on receipt of a message
  marked as aggregated and returns the reconstructed originals (reversible
  rules) or the message itself (non-reversible rules).

The default implementation is a no-op: with it, the gossip layer behaves
exactly like classic gossip, and charges no hook CPU time. Hooks may set
``validate`` or ``aggregate`` to None (a disabled technique): the node
then makes no call for it, and charges hook time as for any other hooks.

**Reversibility contract** (paper §3.2): an aggregation rule must neither
lose nor invent protocol messages — flattening a send batch through
``disaggregate`` before and after ``aggregate`` must yield the same
multiset of message uids. Rules that satisfy this are transparent to the
consensus protocol; rules that do not can silently break Paxos quorums.
``repro check --invariants`` (see docs/static-analysis.md) enforces the
contract at runtime by wrapping deployed hooks in
:class:`repro.checks.monitor.CheckedHooks`.
"""


class SemanticHooks:
    """No-op hooks; subclass to inject consensus semantics."""

    def validate(self, payload, peer_id):
        """Return False to filter ``payload`` out of the send to ``peer_id``.

        Implementations must be fast and side-effect-light: the method runs
        once per (message, peer) pair on the send path.
        """
        return True

    def aggregate(self, payloads, peer_id):
        """Return the list of messages to actually send to ``peer_id``.

        Called with the pending messages for a peer (2 or more). The
        returned list may mix untouched originals and aggregated messages;
        they are sent in the returned order.
        """
        return payloads

    def disaggregate(self, payload):
        """Reconstruct the original messages from an aggregated one.

        Only called for payloads whose ``aggregated`` attribute is true.
        For reversible rules the reconstruction must be exact (see the
        module-level reversibility contract); non-reversible rules return
        the payload itself and their aggregates are delivered as-is.
        """
        return [payload]


def is_noop(hooks, name):
    """Whether ``hooks``' ``name`` hook is SemanticHooks' no-op."""
    hook = getattr(hooks, name)
    return getattr(hook, "__func__", None) is getattr(SemanticHooks, name)
