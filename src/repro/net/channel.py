"""Point-to-point directed links.

A :class:`DirectedLink` models one direction of a (bi-directional) channel
between two processes: a transmission server that serialises messages onto
the wire one at a time (per-message overhead plus a per-byte cost), followed
by a propagation delay equal to the one-way region-to-region latency plus
optional jitter. Links may bound their transmit queue; when full, messages
are dropped — mirroring the paper's note that its implementation discards
messages when inter-routine queues fill up.

Message loss: a per-link ``loss_hook`` (see :mod:`repro.net.faults`) is
consulted at delivery time; if it returns True the message is silently
discarded, reproducing the paper's receiver-side fault injection (§4.5).

Single-event hops
-----------------

The transmission server runs in virtual time, so the serialisation
completion of an accepted message is known the moment it is submitted.
Every transmission is therefore committed right then as exactly **one**
kernel event: the propagation arrival at ``completion + latency_s`` plus,
on a jittered link, one ``uniform(0, jitter_s)`` draw taken at that same
moment. Jitter is thus drawn in *commit* order — the order messages were
handed to the link — which, like everything else, is a pure function of
``(config, seed)``.

:meth:`DirectedLink.degrade` re-times what has not finished serialising:
each such message's arrival is cancelled and committed again at
``completion + new delay`` (the new latency and, if jittered, a fresh draw,
in FIFO order), which keeps the documented "only messages serialised after
the call see the new parameters" contract. Messages already serialised are
propagating and keep the arrival they were given.
"""

from collections import deque

from repro.sim.server import FifoServer, check_service_time


class LinkConfig:
    """Transmission cost model and queue bound shared by links.

    Parameters
    ----------
    per_message_s:
        Fixed serialisation overhead per message (seconds).
    per_byte_s:
        Wire time per byte (seconds); 8e-9 corresponds to 1 Gbps.
    queue_capacity:
        Maximum queued messages per link direction; ``None`` = unbounded.
    jitter_s:
        Width of the uniform propagation jitter (seconds); 0 disables.

    Times must be finite and non-negative and the capacity ``None`` or
    ``>= 0``; anything else raises a ``ValueError`` naming the field.
    """

    __slots__ = ("per_message_s", "per_byte_s", "queue_capacity", "jitter_s")

    def __init__(self, per_message_s=60e-6, per_byte_s=8e-9,
                 queue_capacity=20_000, jitter_s=0.0):
        self.per_message_s = per_message_s
        self.per_byte_s = per_byte_s
        self.queue_capacity = queue_capacity
        self.jitter_s = jitter_s
        for name in ("per_message_s", "per_byte_s", "jitter_s"):
            check_service_time("LinkConfig." + name, getattr(self, name))
        if queue_capacity is not None and not queue_capacity >= 0:
            raise ValueError(
                "LinkConfig.queue_capacity must be None or >= 0, got "
                "{!r}".format(queue_capacity))


class LinkStats:
    """Per-link counters."""

    __slots__ = ("sent", "dropped_queue", "dropped_loss", "delivered", "bytes_sent")

    def __init__(self):
        self.sent = 0
        self.dropped_queue = 0
        self.dropped_loss = 0
        self.delivered = 0
        self.bytes_sent = 0


class DirectedLink:
    """One direction of a channel: src -> dst."""

    __slots__ = (
        "sim", "src", "dst", "latency_s", "config", "_stats",
        "_server", "_submit_timed", "_submit_fast", "_submit_chain",
        "_in_flight", "_jitter_rng", "_deliver", "_arrive_cb",
        "loss_hook", "_base_latency_s", "_base_config", "_base_jitter_rng",
    )

    def __init__(self, sim, src, dst, latency_s, config, deliver, loss_hook=None):
        """
        Parameters
        ----------
        deliver:
            Callback ``deliver(src_id, payload)`` invoked at the receiver
            when the message arrives (after loss injection).
        loss_hook:
            Optional ``loss_hook(dst_id) -> bool``; True drops the message.
        """
        self.sim = sim
        self.src = src
        self.dst = dst
        self.latency_s = latency_s
        self.config = config
        self._stats = LinkStats()
        self._server = FifoServer(sim, capacity=config.queue_capacity,
                                  on_drop=self._on_queue_drop)
        self._submit_timed = self._server.submit_timed
        self._submit_fast = self._server.submit_fast
        self._submit_chain = self._server.submit_chain
        # One bound method reused for every hop: creating `self._arrive`
        # per transmission is a measurable share of hot-path allocation.
        self._arrive_cb = self._arrive
        #: Messages not yet drained into ``stats.sent``, as
        #: (serialisation_completion, size_bytes, payload, arrive_event)
        #: in completion order. Every transmit retires the completed head
        #: before appending, so this holds the unserialised messages plus
        #: whatever completed since the last transmit — O(in-flight), not
        #: O(history).
        self._in_flight = deque()
        self._jitter_rng = sim.rng("link-jitter") if config.jitter_s > 0 else None
        self._deliver = deliver
        self.loss_hook = loss_hook
        # Pristine parameters, restored when a fault-induced degradation ends.
        self._base_latency_s = latency_s
        self._base_config = config
        self._base_jitter_rng = self._jitter_rng

    @property
    def stats(self):
        """Counters, drained to the current instant before reading.

        A message counts as ``sent`` once its serialisation completion
        has passed.
        """
        self._drain_sent(self.sim.now)
        return self._stats

    def degrade(self, latency_factor=1.0, extra_jitter_s=0.0, jitter_rng=None):
        """Degrade propagation relative to the link's pristine parameters.

        Multiplies the one-way latency by ``latency_factor`` and widens the
        uniform jitter by ``extra_jitter_s`` (drawn from ``jitter_rng``).
        Neutral arguments (factor 1, no extra jitter) restore the link.
        Messages already serialised keep their arrival; only messages
        serialised after the call see the new parameters, so the arrival
        of each message still queued or in service is cancelled and
        committed again at ``completion + new delay`` (fresh jitter draw,
        FIFO order).
        """
        base = self._base_config
        self.latency_s = self._base_latency_s * latency_factor
        if extra_jitter_s > 0:
            self.config = LinkConfig(base.per_message_s, base.per_byte_s,
                                     base.queue_capacity,
                                     base.jitter_s + extra_jitter_s)
            self._jitter_rng = jitter_rng
        else:
            self.config = base
            self._jitter_rng = self._base_jitter_rng
        sim = self.sim
        self._drain_sent(sim.now)
        in_flight = self._in_flight
        for _ in range(len(in_flight)):
            completion, _size, payload, event = in_flight.popleft()
            sim.cancel(event)
            self._commit(completion, payload)

    def restore(self):
        """Undo any degradation (see :meth:`degrade`)."""
        self.degrade()

    @property
    def busy(self):
        return self._server.busy

    @property
    def queue_length(self):
        return self._server.queue_length

    def transmit_timed(self, payload):
        """Transmit on an (expected) idle link; returns the completion.

        Senders that pace themselves arithmetically (tracking when the
        link frees) call this: the payload is committed to the wire,
        exactly one arrival event is scheduled, and the instant the link
        frees is returned.

        Callers are expected to transmit only while the link is idle, so a
        queue-full drop cannot normally occur here; if it does, the drop
        is counted and the current time is returned (the link is free).
        """
        config = self.config
        service = config.per_message_s + payload.size_bytes * config.per_byte_s
        completion = self._submit_fast(service)
        if completion is None:
            return self.sim.now
        self._commit(completion, payload)
        return completion

    def transmit_chained(self, payload):
        """Chain a payload behind the link's committed work.

        The batched gossip pump calls this for every message of a
        validated round in one go: each serialisation is appended to the
        transmission server's busy tail (:meth:`FifoServer.submit_chain`)
        and exactly one arrival event is armed from its arithmetic
        completion — the same ``(time, seq)`` positions a per-message pump
        paced by wake-up events would have produced. Chains never drop
        (the sender paces itself, so chain entries model pacing, not queue
        contention). Returns the serialisation completion.
        """
        config = self.config
        service = config.per_message_s + payload.size_bytes * config.per_byte_s
        completion = self._submit_chain(service)
        self._commit(completion, payload)
        return completion

    def abort_pending_chain(self):
        """Withdraw chained messages that have not started serialising.

        Called when the sending node crashes mid-round: the reference
        pump would simply never have transmitted the rest of the round.
        The message in service stays — it is on the wire and arrives, as
        it does in the reference — while queued chain entries are removed
        from the transmission server and their pre-armed arrival events
        cancelled. Returns the number of withdrawn messages.
        """
        removed, busy_until = self._server.abort_queued(self.sim.now)
        if removed:
            in_flight = self._in_flight
            sim = self.sim
            while in_flight and in_flight[-1][0] > busy_until:
                sim.cancel(in_flight.pop()[3])
        return removed

    def transmit(self, payload):
        """Send a payload towards ``dst``.

        Returns False if the transmit queue was full.
        """
        config = self.config
        service = config.per_message_s + payload.size_bytes * config.per_byte_s
        completion = self._submit_timed(service, None)
        if completion is None:
            return False
        self._commit(completion, payload)
        return True

    def _commit(self, completion, payload):
        """Arm the one event of a hop that serialises at ``completion``.

        The arrival fires after the propagation delay: the latency plus,
        on a jittered link, one draw taken here — when the arrival is
        committed. :class:`LinkConfig` rejects negative times, so
        ``completion >= now`` and ``delay >= 0`` by construction and the
        arrival can take the kernel's unchecked hot path.
        """
        delay = self.latency_s
        if self._jitter_rng is not None:
            delay += self._jitter_rng.uniform(0.0, self.config.jitter_s)
        sim = self.sim
        event = sim.push_event(completion + delay, self._arrive_cb, (payload,))
        # _drain_sent, inlined: this runs once per hop, and retiring
        # before every append is what keeps the deque O(in-flight).
        now = sim.now
        in_flight = self._in_flight
        stats = self._stats
        while in_flight and in_flight[0][0] <= now:
            stats.sent += 1
            stats.bytes_sent += in_flight.popleft()[1]
        in_flight.append((completion, payload.size_bytes, payload, event))

    def _on_queue_drop(self, fn, args):
        self._stats.dropped_queue += 1

    def _arrive(self, payload):
        if self.loss_hook is not None and self.loss_hook(self.dst):
            self._stats.dropped_loss += 1
            return
        self._stats.delivered += 1
        self._deliver(self.src, payload)

    def rebind_deliver(self, deliver):
        """Point arrivals directly at the receiver's resolved callback.

        The destination transport calls this once its receive callback is
        claimed, cutting its dispatch frame out of every arrival. Purely
        a call-graph flattening: the same callback runs with the same
        arguments at the same instants.
        """
        self._deliver = deliver

    def _drain_sent(self, now):
        """Count messages whose serialisation has completed."""
        in_flight = self._in_flight
        if not in_flight:
            return
        stats = self._stats
        while in_flight and in_flight[0][0] <= now:
            record = in_flight.popleft()
            stats.sent += 1
            stats.bytes_sent += record[1]
