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

The per-hop half and the send routines are compiled
(``repro/sim/_kernel/node.c``, one extension with the link, server and
cache they call): :class:`GossipNode` derives from the C ``NodeCore``, whose
``_on_link_receive`` (the receive, single-part or aggregated: an
``Aggregated2b`` or ``AggregatedAck`` is split into its votes by the
compiled aggregator, each built slot by slot), ``_complete`` and
``_complete_parts`` (deliver and forward) and ``_send`` (the fan-out loop)
run without entering Python unless they call out — to hooks other than
the compiled filter and aggregator of :mod:`repro.core`, to a tracer, or
to the application; the cache, an :class:`InternedSeenCache`, is probed
in C. A fresh payload whose exact class was given a handler by
``route(cls, handler)`` (membership traffic) goes to that handler, and
any other to ``deliver``, a Paxos replica's ``handle`` called directly.
:class:`_PeerSender` is the C ``SenderCore``: the queue, wake-up
and batched round behind a busy link are compiled too, and
:class:`GossipStats` is a C type. Python keeps what runs rarely: the
broadcast. A subclass that defines ``_on_link_receive`` or ``_complete``
(the pull strategies) has its own called. The Python form of the
compiled paths is the reference model in
``tests/reference/node.py``.

Saturation model: all application-visible work (duplicate checks, delivery,
forward fan-out) is charged to a single per-process CPU server; each link
additionally charges transmission time. See DESIGN.md §5.2.
"""

from repro.sim.actors import Actor
from repro.sim.events import compiled
from repro.sim.server import FifoServer, check_service_time
from repro.gossip.cache import InternedSeenCache
from repro.gossip.hooks import SemanticHooks, is_noop
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
    (:meth:`GossipNode._send`), which records ``_free_at`` here. A
    message for a busy link is queued (``enqueue``), and the first
    one queued arms the only event a sender ever arms: a wake-up at
    ``_free_at``. Nothing commits onto the link while it is armed, so
    it fires as the link frees; whatever has queued by then is
    validated/aggregated and committed whole as one chained round
    (``_wakeup``). A transmission with nothing behind it — the common
    case below saturation — costs no sender event at all. Link jitter
    changes none of this: the link draws it when it commits an arrival,
    and it moves arrivals, never completions.

    The queue is a plain list that the round takes whole, leaving an
    empty one in its place. It holds messages only while a wake-up is
    armed. ``busy`` is true while a batch is being serialised or paced;
    ``discard()`` disarms the wake-up and forgets the queue.

    All of it is the compiled ``SenderCore`` (``repro/sim/_kernel/node.c``):
    the round calls a compiled filter's and aggregator's own validate and
    aggregate, and any other hooks through Python, as the node's fan-out
    does. This subclass only names the sender's events (the wake-up's
    label is ``_PeerSender._wakeup``). The Python it replaced is the
    reference model in ``tests/reference/node.py``.
    """

    __slots__ = ()


class GossipNode(compiled.NodeCore, Actor):
    """Push-gossip layer of one process.

    The C base holds what every hop reads: ``alive``, ``deliver``, ``obs``,
    ``stats``, ``cpu``, ``cache``, the validate, aggregate and disaggregate
    callables, the route table, the service times and the fan-out tuple.
    Python slots hold the rest. Subclasses that add state (the pull
    strategies) simply omit ``__slots__`` and get a dict for their
    extras.
    """

    __slots__ = (
        "sim", "name", "links", "costs",
        "hooks_charged", "_hooks", "_senders", "_send_queue_capacity",
    )

    def __init__(self, sim, process_id, costs=None, hooks=None, cache=None,
                 deliver=None, cpu=None, send_queue_capacity=None):
        """
        The node starts with no links: :func:`repro.net.channel.connect`
        files each outgoing link in ``links`` (by destination id, in
        connect order) and points each incoming one's arrivals at
        ``_on_link_receive``; :meth:`add_peers` then gossips over them.

        Parameters
        ----------
        hooks:
            :class:`SemanticHooks`; defaults to the no-op implementation
            (classic gossip).
        cache:
            The recently-seen cache, an :class:`InternedSeenCache` (the
            setter raises ``TypeError`` for anything else). Nodes that
            exchange payloads must build theirs over one shared
            :class:`repro.net.message.UidInterner`, because a payload
            carries a single interned id; the default, a cache over a
            private interner, suits a node on its own.
        deliver:
            ``deliver(payload)`` callback into the application (consensus).
        cpu:
            Optional shared :class:`FifoServer`; one is created if absent.
        """
        Actor.__init__(self, sim, "gossip-{}".format(process_id))
        self.links = {}
        self.costs = costs = costs or GossipCosts()
        hooks = hooks or SemanticHooks()
        #: Whether hook CPU time (``costs.hook_s``) is charged on the send
        #: path: unless validate and aggregate are both the no-op defaults
        #: (classic gossip). A hook set to None makes no call but is still
        #: charged. Decided once against the hooks installed at
        #: construction, so observational wrappers attached later (e.g.
        #: the safety monitor's CheckedHooks) cannot perturb run timing.
        self.hooks_charged = not (is_noop(hooks, "validate")
                                  and is_noop(hooks, "aggregate"))
        if cache is None:
            cache = InternedSeenCache(interner=UidInterner())
        cpu = cpu or FifoServer(sim)
        compiled.NodeCore.__init__(
            self, sim, process_id, cpu, cache, deliver, costs,
            costs.hook_s if self.hooks_charged else 0.0)
        self.hooks = hooks                        # property: sets flags
        self._senders = {}
        self._send_queue_capacity = send_queue_capacity

    @property
    def hooks(self):
        return self._hooks

    @hooks.setter
    def hooks(self, hooks):
        # Refresh the bound hooks on every swap (safety monitor wrappers,
        # test doubles): the default validate admits everything, the
        # default aggregate is the identity and the default disaggregate
        # returns the payload alone, so they are bound as None, like a
        # hook the hooks object set to None, and the hot path skips those
        # calls entirely. ``hooks_charged`` is deliberately NOT refreshed
        # — the CPU-charge decision is pinned at construction so
        # observational wrappers cannot perturb run timing.
        self._hooks = hooks
        self._validate, self._aggregate, self._disaggregate = (
            None if is_noop(hooks, name) else getattr(hooks, name)
            for name in ("validate", "aggregate", "disaggregate"))

    # -- wiring ----------------------------------------------------------

    def start(self):
        """Begin periodic activity; a no-op for plain push gossip."""

    def stop(self):
        """Stop periodic activity; a no-op for plain push gossip."""

    def crash(self):
        """Stop participating: drop inbound traffic, lose queued sends.

        Messages already committed to a link are on the NIC and still
        arrive; only what waits in the senders' queues is lost.
        """
        self.alive = False
        for sender in self._senders.values():
            sender.queue.clear()

    def recover(self):
        """Resume participation (the dedup cache survived on purpose:
        re-receiving old messages is harmless either way)."""
        self.alive = True

    def add_peers(self, peer_ids):
        """Register peers reachable over ``links``, in order, with one
        fan-out rebuild (the overlay's initial wiring)."""
        links = self.links
        capacity = self._send_queue_capacity
        senders = self._senders
        for peer_id in peer_ids:
            senders[peer_id] = _PeerSender(self, peer_id, links[peer_id],
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
        if not self.cache.register_payload(payload):
            return  # re-broadcast of a known message: nothing to do
        self.cpu.submit_timed(self._svc_broadcast, self._complete, payload,
                              None)
