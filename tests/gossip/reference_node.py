"""The gossip node's per-hop paths in Python: the executable reference model.

:class:`repro.gossip.node.GossipNode` runs its single-part receive, its
deliver-and-forward completion and its fan-out loop in the compiled
kernel (``repro/sim/_kernel.c``), and its counters are a C type. This is
the Python they replaced, kept verbatim: :class:`GossipStats`, and
``_on_link_receive``, ``_complete``, ``_send`` and ``_rebuild_forward``
(with the fan-out tuple and service times as plain attributes) on a
subclass of the compiled node, so that everything else — the broadcast,
the senders' queues and wake-ups, the hooks and the cache — is shared.
It lives with the tests because nothing else constructs it:
`tests/properties/test_node_lockstep.py` drives one op stream through a
mesh of these and a mesh of compiled nodes and requires identical
counters, events and sender state at every step.
"""

from repro.gossip.node import GossipNode


class GossipStats:
    """Counters matching the quantities reported in the paper's §4.3."""

    __slots__ = (
        "broadcasts", "received", "duplicates", "delivered", "forwarded",
        "filtered", "aggregated_in", "aggregated_saved", "disaggregated",
        "send_queue_drops",
    )

    def __init__(self):
        self.broadcasts = 0          # locally broadcast messages
        self.received = 0            # messages arriving over links (pre-dedup)
        self.duplicates = 0          # discarded by the duplication check
        self.delivered = 0           # handed to the application
        self.forwarded = 0           # enqueued towards peers (pre-filter)
        self.filtered = 0            # dropped by semantic validate()
        self.aggregated_in = 0       # originals consumed by aggregation
        self.aggregated_saved = 0    # transmissions avoided by aggregation
        self.disaggregated = 0       # originals reconstructed on receipt
        self.send_queue_drops = 0    # pending sends dropped (queue full)

    def duplicate_fraction(self):
        """Fraction of received messages discarded as duplicates."""
        if self.received == 0:
            return 0.0
        return self.duplicates / self.received


class ReferenceNode(GossipNode):
    """A :class:`GossipNode` whose per-hop paths and counters are Python."""

    __slots__ = ("_stats", "_fwd_pairs", "_fanout", "_svc_broadcast",
                 "_svc_receive")

    def __init__(self, *args, **kwargs):
        self._stats = GossipStats()
        super().__init__(*args, **kwargs)
        self._fwd_pairs = ()
        self._fanout = 0
        self._svc_broadcast = self.costs.recv_fresh_s
        self._svc_receive = self.costs.recv_fresh_s

    @property
    def stats(self):
        return self._stats

    def _rebuild_forward(self):
        """Recompute the flat fan-out state after a peer-set change.

        ``_fwd_pairs`` mirrors ``_senders.items()`` (same insertion order,
        so the forward loop enqueues in exactly the dict-iteration order
        the reference used); the service times are the same arithmetic the
        per-receive code used to evaluate, hoisted to membership changes.
        """
        self._fwd_pairs = tuple(self._senders.items())
        fanout = len(self._fwd_pairs)
        self._fanout = fanout
        costs = self.costs
        self._svc_broadcast = (
            costs.recv_fresh_s + fanout * costs.send_per_peer_s)
        recv_fanout = fanout - 1
        if recv_fanout < 0:
            recv_fanout = 0
        self._svc_receive = (
            costs.recv_fresh_s + recv_fanout * costs.send_per_peer_s)

    def _complete(self, payload, src):
        """Deliver a fresh ``payload`` and forward it to every peer but
        ``src`` (``None`` for a local broadcast)."""
        stats = self.stats
        stats.delivered += 1
        if self.deliver is not None:
            self.deliver(payload)
        stats.forwarded += self._send(payload, self._fwd_pairs, src)

    def _on_link_receive(self, src, payload):
        if not self.alive:
            return
        stats = self.stats
        stats.received += 1
        costs = self.costs
        if not payload.aggregated:
            # Single-part fast path: no part list, no service accumulator
            # loop — identical charges and pushes, common-case receive.
            obs = self.obs
            if self._register(payload):
                if obs is not None:
                    obs.gossip_receive(self.process_id, src, payload, True)
                self._cpu_submit(self._svc_receive, self._complete,
                                 payload, src)
            else:
                stats.duplicates += 1
                if obs is not None:
                    obs.gossip_receive(self.process_id, src, payload, False)
                self._cpu_acct(costs.recv_dup_s)
            return
        parts = self._hooks.disaggregate(payload)
        self.stats.disaggregated += len(parts)
        register = self._register
        fresh = []
        service = 0.0
        duplicates = 0
        obs = self.obs
        for part in parts:
            if register(part):
                fresh.append(part)
                service += costs.recv_fresh_s
                if obs is not None:
                    obs.gossip_receive(self.process_id, src, part, True)
            else:
                duplicates += 1
                service += costs.recv_dup_s
                if obs is not None:
                    obs.gossip_receive(self.process_id, src, part, False)
        # Count duplicates per part (matching ``disaggregated``), so an
        # aggregated bundle of k already-seen messages is k duplicates —
        # the paper's §4.3 per-message semantics.
        self.stats.duplicates += duplicates
        if not fresh:
            self._cpu_acct(service)
            return
        fanout = self._fanout - 1
        if fanout < 0:
            fanout = 0
        service += len(fresh) * fanout * costs.send_per_peer_s
        self._cpu_submit(service, self._complete_parts, fresh, src)

    def _send(self, payload, pairs, exclude=None):
        """Hand ``payload`` to each ``(peer_id, sender)`` of ``pairs`` but
        ``exclude``'s; returns how many.

        The send decision for a whole fan-out, in one loop. A busy peer
        (link serialising or wake-up armed) has the message queued. An
        idle peer's queue is empty, and the message is decided here: it
        is validated and charged ``hook_s``; if admitted, it is committed
        with the arrival tuple the fan-out shares, after reserving the
        slot a later wake-up fires in (first, so that wake-up precedes a
        zero-latency arrival at the completion instant).
        """
        sim = self.sim
        now = sim.now
        reserve = sim.reserve_slot
        validate = None if self.validate_default else self._hooks.validate
        hook_s = self.costs.hook_s if self.hooks_charged else 0.0
        args = (payload,)
        count = 0
        for peer_id, sender in pairs:
            if peer_id == exclude:
                continue
            count += 1
            if sender._wakeup_armed or now < sender._free_at:
                sender.enqueue(payload)
            elif validate is None or validate(payload, peer_id):
                if hook_s > 0.0:
                    self._cpu_acct(hook_s)
                sender._wakeup_seq = reserve()
                sender._free_at = sender.link.commit(payload, args, now)
            else:
                self.stats.filtered += 1
                if self.obs is not None:
                    self.obs.gossip_filtered(self.process_id, peer_id,
                                             payload)
                if hook_s > 0.0:
                    self._cpu_acct(hook_s)
        return count
