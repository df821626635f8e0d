"""The gossip layer of one process (paper Figure 2).

Architecture per the paper's §3.3:

* a *broadcast* path — locally broadcast messages are registered in the
  recently-seen cache, delivered to the application, and added to every
  peer's send queue;
* a *receive* path — messages arriving from a peer go through the
  duplication check; fresh messages are delivered and added to all send
  queues except the origin peer's;
* one *send routine per peer* — drains that peer's send queue onto the
  link, applying the semantic ``validate`` filter per message and, when the
  queue holds several pending messages, the semantic ``aggregate`` hook.
  One loop over the fan-out (:meth:`GossipNode._send`) validates and
  commits a message for an idle link itself and queues only the rest.

The per-hop half is compiled (``repro/sim/_kernel.c``, beside the link,
server and cache it calls): :class:`GossipNode` derives from the C
``NodeCore``, whose ``_on_link_receive`` (the single-part receive),
``_complete`` (deliver and forward) and ``_send`` (the fan-out loop) run
without entering Python unless they call out — to the cache if it is not
an :class:`InternedSeenCache`, to the application's ``deliver``, to
overridden hooks, to a tracer, or to a busy peer's :meth:`_PeerSender.enqueue`.
:class:`GossipStats` is a C type, and :class:`_PeerSender` keeps its link
and pacing state in a C base. Python keeps what runs rarely: the
broadcast, the aggregated receive (:meth:`GossipNode._receive_aggregated`)
and everything behind a busy link (the sender's queue, wake-up and
batched round). A subclass that defines ``_on_link_receive`` or
``_complete`` (the pull strategies) has its own called. The Python form
of the compiled paths is the reference model in
``tests/gossip/reference_node.py``.

Saturation model: all application-visible work (duplicate checks, delivery,
forward fan-out) is charged to a single per-process CPU server; each link
additionally charges transmission time. See DESIGN.md §5.2.
"""

from repro.sim.actors import Actor
from repro.sim.events import compiled
from repro.sim.server import FifoServer, check_service_time
from repro.gossip.cache import InternedSeenCache
from repro.gossip.hooks import SemanticHooks
from repro.net.message import UidInterner

#: Counters matching the quantities reported in the paper's §4.3: the ten
#: writable ints ``broadcasts``, ``received`` (pre-dedup), ``duplicates``,
#: ``delivered``, ``forwarded`` (pre-filter), ``filtered``,
#: ``aggregated_in``, ``aggregated_saved``, ``disaggregated`` and
#: ``send_queue_drops``, and ``duplicate_fraction()``.
GossipStats = compiled.GossipStats


class GossipCosts:
    """CPU service-time model of the gossip layer.

    Times are in seconds per operation. They are deliberately explicit
    configuration — they play the role of the paper's t2.medium CPUs and
    determine where the latency knees fall. Each must be finite and
    non-negative; anything else raises a ``ValueError`` naming the field.
    """

    __slots__ = ("recv_fresh_s", "recv_dup_s", "send_per_peer_s", "hook_s")

    def __init__(self, recv_fresh_s=15e-6, recv_dup_s=3e-6,
                 send_per_peer_s=4e-6, hook_s=1e-6):
        self.recv_fresh_s = recv_fresh_s
        self.recv_dup_s = recv_dup_s
        self.send_per_peer_s = send_per_peer_s
        self.hook_s = hook_s
        for name in self.__slots__:
            check_service_time("GossipCosts." + name, getattr(self, name))


class _PeerSender(compiled.SenderCore):
    """Send routine for one peer: queue + validate/aggregate + pacing.

    There is one way to send, and it is event-free. Every link reports
    the serialisation completion at commit time, so the sender tracks the
    instant the link frees (``_free_at``) arithmetically. A message for
    an idle link is committed by the node's fan-out loop
    (:meth:`GossipNode._send`), which records ``_free_at`` and the
    tie-break slot here. A message for a busy link is queued
    (:meth:`enqueue`), and the first one queued arms the only event a
    sender ever arms: a wake-up at ``_free_at``, in the slot reserved at
    the last commit. Nothing commits onto the link while it is armed, so
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
    until), ``_wakeup_armed`` and ``_wakeup_seq`` (the tie-break slot
    reserved for the wake-up) live in the C base, where the compiled
    fan-out reads and writes them; they start at 0.0, False and 0.
    """

    __slots__ = ("node", "sim", "peer_id", "queue", "capacity",
                 "_wakeup_event", "_round")

    def __init__(self, node, peer_id, link, capacity):
        self.node = node
        self.sim = node.sim
        self.peer_id = peer_id
        self.link = link
        self.queue = []
        self.capacity = capacity
        self._wakeup_event = None    # handle, valid only while armed
        self._round = []         # (completion, seq) per chained message

    @property
    def busy(self):
        """True while a batch is being serialised or paced."""
        return self._wakeup_armed or self.sim.now < self._free_at

    def enqueue(self, payload):
        """Queue ``payload`` behind the busy link (see :attr:`busy`).

        The first message queued arms the wake-up: it fires when the link
        frees, in the tie-break slot reserved at the last commit. A full
        queue drops the message and counts the drop.
        """
        queue = self.queue
        if self.capacity is not None and len(queue) >= self.capacity:
            self.node.stats.send_queue_drops += 1
            return
        queue.append(payload)
        if not self._wakeup_armed:
            self._wakeup_armed = True
            self._wakeup_event = self.sim.push_event(
                self._free_at, self._wakeup, (), self._wakeup_seq)

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
        — zero wake-up events instead of one per message. Each message's
        tie-break slot is still reserved immediately before its transmit,
        exactly where a per-message pump would reserve it, so a wake-up
        lazily armed later (by an enqueue mid-round) fires in the
        reference's queue position at the reference's instant: the end
        of the round, which is when the per-message pump first looked at
        the queue again.
        """
        sim = self.sim
        reserve = sim.reserve_slot
        commit = self.link.commit
        now = sim.now
        round_tail = self._round
        round_tail.clear()
        for payload in batch:
            seq = reserve()
            completion = commit(payload, (payload,), now)
            round_tail.append((completion, seq))
        self._wakeup_seq = seq
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

    def abort_round(self):
        """Withdraw the committed-but-unserialised tail of the round.

        Crash semantics: the per-message reference pump never submitted
        messages it had not reached when the node crashed, so a batched
        round's chain entries beyond the message in service are
        un-committed (that message is on the wire and still arrives, as
        in the reference). The pacing state rolls back to the in-service
        message — including re-targeting a lazily-armed wake-up to the
        instant and reserved slot the reference's wake-up would occupy,
        so a post-recovery enqueue pumps at the reference's instant.
        """
        removed = self.link.abort_pending_chain()
        if not removed:
            return
        round_tail = self._round
        del round_tail[-removed:]
        completion, seq = round_tail[-1]
        self._free_at = completion
        self._wakeup_seq = seq
        if self._wakeup_armed and self._wakeup_event is not None:
            self.sim.cancel(self._wakeup_event)
            self._wakeup_event = self.sim.push_event(
                completion, self._wakeup, (), seq)


class GossipNode(compiled.NodeCore, Actor):
    """Push-gossip layer of one process.

    The C base holds what every hop reads: ``alive``, ``deliver``, ``obs``,
    ``stats``, ``cpu``, ``cache``, the validate callable, the service times
    and the fan-out tuple. Python slots hold the rest. Subclasses that add
    state (the pull strategies) simply omit ``__slots__`` and get a dict
    for their extras.
    """

    __slots__ = (
        "sim", "name", "transport", "costs", "_cpu_submit", "_cpu_acct",
        "hooks_charged", "validate_default", "aggregate_default", "_hooks",
        "_senders", "_send_queue_capacity",
    )

    def __init__(self, sim, process_id, transport, costs=None, hooks=None,
                 cache=None, deliver=None, cpu=None, send_queue_capacity=None):
        """
        Parameters
        ----------
        transport:
            The process's :class:`repro.net.transport.Transport`; its links
            carry gossip traffic and its receive callback is claimed here.
        hooks:
            :class:`SemanticHooks`; defaults to the no-op implementation
            (classic gossip).
        cache:
            Duplicate detector (recently-seen cache or sliding Bloom
            filter). Nodes that exchange payloads must build theirs over
            one shared :class:`repro.net.message.UidInterner`, because a
            payload carries a single interned id; the default, an
            :class:`InternedSeenCache` over a private interner, suits a
            node on its own.
        deliver:
            ``deliver(payload)`` callback into the application (consensus).
        cpu:
            Optional shared :class:`FifoServer`; one is created if absent.
        """
        Actor.__init__(self, sim, "gossip-{}".format(process_id))
        self.transport = transport
        self.costs = costs = costs or GossipCosts()
        hooks = hooks or SemanticHooks()
        #: Whether hook CPU time (``costs.hook_s``) is charged on the send
        #: path. Decided once against the hooks installed at construction,
        #: so observational wrappers attached later (e.g. the safety
        #: monitor's CheckedHooks) cannot perturb run timing.
        self.hooks_charged = (
            type(hooks).validate is not SemanticHooks.validate
            or type(hooks).aggregate is not SemanticHooks.aggregate
        )
        if cache is None:
            cache = InternedSeenCache(interner=UidInterner())
        cpu = cpu or FifoServer(sim)
        compiled.NodeCore.__init__(
            self, sim, process_id, cpu, cache, deliver, costs,
            costs.hook_s if self.hooks_charged else 0.0)
        self.hooks = hooks                        # property: sets flags
        #: Fire-and-forget CPU submission for the broadcast and aggregated
        #: receive, bound once. The returned completion is never used here.
        self._cpu_submit = cpu.submit_timed
        #: Accounting-only CPU charge (no callback, no varargs packing).
        self._cpu_acct = cpu.submit_acct
        self._senders = {}
        self._send_queue_capacity = send_queue_capacity
        transport.on_receive(self._on_link_receive)

    @property
    def hooks(self):
        return self._hooks

    @hooks.setter
    def hooks(self, hooks):
        # Refresh the per-hook defaultness flags on every swap (safety
        # monitor wrappers, test doubles): the default validate admits
        # everything and the default aggregate is the identity, so the
        # hot path skips those calls entirely when the flag is set.
        # ``hooks_charged`` is deliberately NOT refreshed — the CPU-charge
        # decision is pinned at construction so observational wrappers
        # cannot perturb run timing.
        self._hooks = hooks
        self.validate_default = type(hooks).validate is SemanticHooks.validate
        self.aggregate_default = (
            type(hooks).aggregate is SemanticHooks.aggregate)
        self._validate = None if self.validate_default else hooks.validate

    # -- wiring ----------------------------------------------------------

    def start(self):
        """Begin periodic activity; a no-op for plain push gossip."""

    def stop(self):
        """Stop periodic activity; a no-op for plain push gossip."""

    def crash(self):
        """Stop participating: drop inbound traffic, lose queued sends.

        A batched round committed to a link is rolled back to the message
        in service (see :meth:`_PeerSender.abort_round`) — matching the
        per-message pump, which would simply never have transmitted the
        rest of the round.
        """
        self.alive = False
        for sender in self._senders.values():
            sender.queue.clear()
            sender.abort_round()

    def recover(self):
        """Resume participation (the dedup cache survived on purpose:
        re-receiving old messages is harmless either way)."""
        self.alive = True

    def add_peers(self, peer_ids):
        """Register peers reachable through the transport's links, in
        order, with one fan-out rebuild (the overlay's initial wiring)."""
        link_to = self.transport.link_to
        capacity = self._send_queue_capacity
        senders = self._senders
        for peer_id in peer_ids:
            senders[peer_id] = _PeerSender(self, peer_id, link_to(peer_id),
                                           capacity)
        self._rebuild_forward()

    def add_peer(self, peer_id):
        """Register one peer (membership repair)."""
        self.add_peers((peer_id,))

    def remove_peer(self, peer_id):
        """Drop a peer (overlay repair); queued sends to it are lost."""
        sender = self._senders.pop(peer_id, None)
        if sender is not None and sender._wakeup_armed:
            # The wake-up would still pump the queue onto the peer's link.
            # A sender holds queued messages only while one is armed.
            sender.discard()
        self._rebuild_forward()

    def _rebuild_forward(self):
        """Recompute the flat fan-out state after a peer-set change.

        ``_fwd_pairs`` mirrors ``_senders.items()`` (same insertion order,
        so the forward loop visits peers in dict-iteration order); the C
        base derives ``_fanout``, ``_svc_broadcast`` (``recv_fresh_s +
        fanout * send_per_peer_s``) and ``_svc_receive`` (the same with
        ``max(0, fanout - 1)``) from it.
        """
        self._set_forward(tuple(self._senders.items()))

    def peers(self):
        return list(self._senders)

    # -- broadcast path ----------------------------------------------------

    def broadcast(self, payload):
        """Asynchronously disseminate ``payload`` to all processes."""
        if not self.alive:
            return
        self.stats.broadcasts += 1
        if not self._register(payload):
            return  # re-broadcast of a known message: nothing to do
        self._cpu_submit(self._svc_broadcast, self._complete, payload, None)

    # -- receive path ------------------------------------------------------

    def _receive_aggregated(self, src, payload):
        """An aggregated arrival, already checked alive and counted
        received by the compiled receive: dedup each part, and one CPU job
        for the fresh ones."""
        costs = self.costs
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

    def _complete_parts(self, fresh, src):
        """The fresh parts of one aggregate, in its one CPU job."""
        for part in fresh:
            self._complete(part, src)
