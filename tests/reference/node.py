"""The gossip node's per-hop paths in Python: the executable reference model.

:class:`repro.gossip.node.GossipNode` runs its receive, its
deliver-and-forward completion and its fan-out loop in the compiled
kernel (``repro/sim/_kernel/node.c``), its per-peer senders are the compiled
``SenderCore`` (queue, wake-up and batched round), and its counters are a
C type. This is the Python they replaced, kept verbatim:
:class:`GossipStats`, :class:`_PeerSender` (on the compiled base, whose
link and pacing state it keeps there), and ``_on_link_receive`` (with
the aggregated receive), ``_complete`` (which hands a payload whose
exact class has a ``route`` to its handler, and any other to
``deliver``), ``_complete_parts``, ``_send`` and ``_rebuild_forward``
(with the fan-out tuple, service times and bound CPU submissions as
plain attributes) on a subclass of the compiled node that builds its
senders from it, so that everything else — the broadcast, the hooks and
the cache — is shared. It lives with the tests
because nothing else constructs it: `tests/properties/test_node_lockstep.py`
drives one op stream through a mesh of these and a mesh of compiled nodes
and requires identical counters, events and sender state at every step;
`tests/properties/test_receive_lockstep.py` does the same with
aggregated votes and acks and a route.
"""

from repro.gossip.node import GossipNode
from repro.sim.events import compiled


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


class _PeerSender(compiled.SenderCore):
    """Send routine for one peer: queue + validate/aggregate + pacing.

    There is one way to send, and it is event-free. Every link reports
    the serialisation completion at commit time, so the sender tracks the
    instant the link frees (``_free_at``) arithmetically. A message for
    an idle link is committed by the node's fan-out loop
    (:meth:`GossipNode._send`), which records ``_free_at`` here. A
    message for a busy link is queued (:meth:`enqueue`), and the first
    one queued arms the only event a sender ever arms: a wake-up at
    ``_free_at``. Nothing commits onto the link while it is armed, so
    it fires as the link frees; whatever has queued by then is
    validated/aggregated and committed whole as one chained round
    (:meth:`_pump`). A transmission with nothing behind it — the common
    case below saturation — costs no sender event at all. Link jitter
    changes none of this: the link draws it when it commits an arrival,
    and it moves arrivals, never completions.

    The queue is a plain list that :meth:`_pump` takes whole, leaving an
    empty one in its place. It holds messages only while a wake-up is
    armed.

    ``link``, ``_free_at`` (the instant the link serialises our traffic
    until) and ``_wakeup_armed`` live in the C base, where the compiled
    fan-out reads and writes them; they start at 0.0 and False.
    """

    __slots__ = ("node", "sim", "peer_id", "queue", "capacity",
                 "_wakeup_event")

    def __init__(self, node, peer_id, link, capacity):
        self.node = node
        self.sim = node.sim
        self.peer_id = peer_id
        self.link = link
        self.queue = []
        self.capacity = capacity
        self._wakeup_event = None    # handle, valid only while armed

    @property
    def busy(self):
        """True while a batch is being serialised or paced."""
        return self._wakeup_armed or self.sim.now < self._free_at

    def enqueue(self, payload):
        """Queue ``payload`` behind the busy link (see :attr:`busy`).

        The first message queued arms the wake-up: it fires when the link
        frees. A full queue drops the message and counts the drop.
        """
        queue = self.queue
        if self.capacity is not None and len(queue) >= self.capacity:
            self.node.stats.send_queue_drops += 1
            return
        queue.append(payload)
        if not self._wakeup_armed:
            self._wakeup_armed = True
            self._wakeup_event = self.sim.push_event(
                self._free_at, self._wakeup, ())

    def _pump(self):
        """Validate + aggregate what has queued and commit it to the wire."""
        node = self.node
        hooks = node._hooks
        batch = self.queue
        self.queue = []
        if node.validate_default:
            # Default validate admits everything; skip the per-message
            # calls (classic gossip's saturated batch path).
            kept = batch
        else:
            kept = []
            for payload in batch:
                if hooks.validate(payload, self.peer_id):
                    kept.append(payload)
                else:
                    node.stats.filtered += 1
                    if node.obs is not None:
                        node.obs.gossip_filtered(node.process_id,
                                                 self.peer_id, payload)
        # Messages run through validate, then (two or more) aggregate.
        examined = len(batch)
        if len(kept) > 1:
            examined += len(kept)
            if not node.aggregate_default:
                before = len(kept)
                kept = hooks.aggregate(kept, self.peer_id)
                saved = before - len(kept)
                if saved > 0:
                    node.stats.aggregated_in += saved + sum(
                        1 for p in kept if p.aggregated
                    )
                    node.stats.aggregated_saved += saved
                    if node.obs is not None:
                        for p in kept:
                            if p.aggregated:
                                # Votes in the sender bitmask; a Batch
                                # has none.
                                votes = getattr(p, "senders", 0).bit_count()
                                node.obs.gossip_aggregated(
                                    node.process_id, self.peer_id, p,
                                    max(0, votes - 1))
        if node.hooks_charged:
            # The hooks ran inline: the charge occupies the CPU without
            # delaying this batch; queued CPU work behind it is what pays.
            service = examined * node.costs.hook_s
            if service > 0.0:
                node._cpu_acct(service)
        if kept:
            self._send_round(kept)

    def _send_round(self, batch):
        """Commit the whole validated batch to the wire arithmetically.

        Every serialisation completion in the round is known now (FIFO
        chain: each message starts when its predecessor finishes), so the
        entire batch is chained onto the transmission server in one pass
        — zero wake-up events instead of one per message. A wake-up
        armed later (by an enqueue mid-round) fires at the end of the
        round.
        """
        commit = self.link.commit
        now = self.sim.now
        for payload in batch:
            completion = commit(payload, (payload,), now)
        self._free_at = completion

    def _wakeup(self):
        self._wakeup_armed = False
        self._wakeup_event = None
        self._pump()

    def discard(self):
        """Disarm the outstanding wake-up and forget the queue it would
        have pumped: the peer is gone (:meth:`GossipNode.remove_peer`)."""
        self.sim.cancel(self._wakeup_event)
        self._wakeup_armed = False
        self._wakeup_event = None
        self.queue.clear()


class ReferenceNode(GossipNode):
    """A :class:`GossipNode` whose per-hop paths and counters are Python."""

    __slots__ = ("_stats", "_fwd_pairs", "_fanout", "_svc_broadcast",
                 "_svc_receive", "_cpu_submit", "_cpu_acct")

    def __init__(self, *args, **kwargs):
        self._stats = GossipStats()
        super().__init__(*args, **kwargs)
        #: The CPU's submissions, bound once.
        self._cpu_submit = self.cpu.submit_timed
        self._cpu_acct = self.cpu.submit_acct
        self._fwd_pairs = ()
        self._fanout = 0
        self._svc_broadcast = self.costs.recv_fresh_s
        self._svc_receive = self.costs.recv_fresh_s

    @property
    def stats(self):
        return self._stats

    # The defaultness flags the Python paths read, from the bound hooks.
    @property
    def validate_default(self):
        return self._validate is None

    @property
    def aggregate_default(self):
        return self._aggregate is None

    def add_peers(self, peer_ids):
        """Register peers, each with a Python :class:`_PeerSender`."""
        for peer_id in peer_ids:
            self._senders[peer_id] = _PeerSender(
                self, peer_id, self.links[peer_id], self._send_queue_capacity)
        self._rebuild_forward()

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
        routes = self._routes or ()
        for at in range(0, len(routes), 2):
            if routes[at] is type(payload):
                routes[at + 1](payload)
                break
        else:
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
            if self.cache.register_payload(payload):
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
        register = self.cache.register_payload
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

    def _complete_parts(self, fresh, src):
        """The fresh parts of one aggregate, in its one CPU job."""
        for part in fresh:
            self._complete(part, src)

    def _send(self, payload, pairs, exclude=None):
        """Hand ``payload`` to each ``(peer_id, sender)`` of ``pairs`` but
        ``exclude``'s; returns how many.

        The send decision for a whole fan-out, in one loop. A busy peer
        (link serialising or wake-up armed) has the message queued. An
        idle peer's queue is empty, and the message is decided here: it
        is validated and charged ``hook_s``; if admitted, it is committed
        with the arrival tuple the fan-out shares.
        """
        now = self.sim.now
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
                sender._free_at = sender.link.commit(payload, args, now)
            else:
                self.stats.filtered += 1
                if self.obs is not None:
                    self.obs.gossip_filtered(self.process_id, peer_id,
                                             payload)
                if hook_s > 0.0:
                    self._cpu_acct(hook_s)
        return count
