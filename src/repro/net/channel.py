"""Point-to-point directed links.

A :class:`DirectedLink` models one direction of a (bi-directional) channel
between two processes: messages are serialised onto the wire one at a time
(per-message overhead plus a per-byte cost), followed by a propagation
delay equal to the one-way region-to-region latency plus optional jitter.
Links may bound their transmit queue; when full, messages are dropped —
mirroring the paper's note that its implementation discards messages when
inter-routine queues fill up.

Message loss: a per-link ``loss_hook`` (see :mod:`repro.net.faults`) is
consulted at delivery time; if it returns True the message is silently
discarded, reproducing the paper's receiver-side fault injection (§4.5).

Single-event hops
-----------------

A link is its own serialiser, in virtual time: the wire is a FIFO
single-server queue whose service times are fixed at submission, so the
serialisation completion of an accepted message is ``max(now, busy_until)
+ service`` the moment it is handed over, and the link keeps just that
``busy_until`` plus one record per unserialised message.
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

from repro.sim.server import check_service_time


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
        "_busy_until", "_in_flight", "_jitter_rng", "_deliver", "_arrive_cb",
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
        #: The instant the wire finishes everything committed so far.
        self._busy_until = 0.0
        # One bound method reused for every hop: creating `self._arrive`
        # per transmission is a measurable share of hot-path allocation.
        self._arrive_cb = self._arrive
        #: Messages not yet drained into ``stats.sent``, as
        #: (serialisation_completion, size_bytes, payload, arrival_handle)
        #: in completion order. Every transmit retires the completed head
        #: before appending, so this holds the unserialised messages (the
        #: one on the wire, then the transmit queue) plus whatever
        #: completed since the last transmit — O(in-flight), not
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
            completion, _size, payload, handle = in_flight.popleft()
            sim.cancel(handle)
            self._commit(completion, payload)

    def restore(self):
        """Undo any degradation (see :meth:`degrade`)."""
        self.degrade()

    @property
    def busy(self):
        """Whether a message is being serialised right now."""
        return self.sim.now < self._busy_until

    @property
    def queue_length(self):
        """Accepted messages waiting behind the one being serialised."""
        self._drain_sent(self.sim.now)
        return max(0, len(self._in_flight) - 1)

    def transmit_timed(self, payload):
        """Transmit on an (expected) idle link; returns the completion.

        Senders that pace themselves arithmetically (tracking when the
        link frees) call this: the payload is committed to the wire,
        exactly one arrival event is scheduled, and the instant the link
        frees is returned.

        Callers are expected to transmit only while the link is idle. On
        a busy link the payload queues behind the committed work like any
        :meth:`transmit`; if the transmit queue is full it is dropped and
        counted, and the current time is returned — not an instant the
        link frees: it is busy, and nothing was committed.
        """
        config = self.config
        service = config.per_message_s + payload.size_bytes * config.per_byte_s
        now = self.sim.now
        if self._busy_until <= now:
            completion = now + service
        elif self._drop_if_full(now):
            return now
        else:
            completion = self._busy_until + service
        self._busy_until = completion
        self._commit(completion, payload)
        return completion

    def transmit_chained(self, payload):
        """Chain a payload behind the link's committed work.

        The batched gossip pump calls this for every message of a
        validated round in one go: each serialisation starts when its
        predecessor finishes and exactly one arrival event is armed from
        its arithmetic completion — the same ``(time, seq)`` positions a
        per-message pump paced by wake-up events would have produced.
        Chains never drop (the sender paces itself, so chain entries model
        pacing, not queue contention). Returns the serialisation
        completion.
        """
        config = self.config
        service = config.per_message_s + payload.size_bytes * config.per_byte_s
        now = self.sim.now
        if self._busy_until <= now:
            completion = now + service
        else:
            completion = self._busy_until + service
        self._busy_until = completion
        self._commit(completion, payload)
        return completion

    def abort_pending_chain(self):
        """Withdraw chained messages that have not started serialising.

        Called when the sending node crashes mid-round: the reference
        pump would simply never have transmitted the rest of the round.
        The message in service stays — it is on the wire and arrives, as
        it does in the reference — while everything queued behind it is
        removed, its pre-armed arrival cancelled, and the link frees when
        the message in service completes. Returns the number of
        withdrawn messages.
        """
        sim = self.sim
        self._drain_sent(sim.now)
        in_flight = self._in_flight
        removed = len(in_flight) - 1
        if removed <= 0:
            return 0
        for _ in range(removed):
            sim.cancel(in_flight.pop()[3])
        self._busy_until = in_flight[0][0]
        return removed

    def transmit(self, payload):
        """Send a payload towards ``dst``.

        Returns False if the transmit queue was full.
        """
        config = self.config
        service = config.per_message_s + payload.size_bytes * config.per_byte_s
        now = self.sim.now
        if self._busy_until <= now:
            completion = now + service
        elif self._drop_if_full(now):
            return False
        else:
            completion = self._busy_until + service
        self._busy_until = completion
        self._commit(completion, payload)
        return True

    def _drop_if_full(self, now):
        """On a busy link: True, and one more drop counted, if the transmit
        queue is at its bound."""
        capacity = self.config.queue_capacity
        if capacity is None:
            return False
        self._drain_sent(now)
        if len(self._in_flight) - 1 < capacity:
            return False
        self._stats.dropped_queue += 1
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
        handle = sim.push_event(completion + delay, self._arrive_cb, (payload,))
        # _drain_sent, inlined: this runs once per hop, and retiring
        # before every append is what keeps the deque O(in-flight).
        now = sim.now
        in_flight = self._in_flight
        stats = self._stats
        while in_flight and in_flight[0][0] <= now:
            stats.sent += 1
            stats.bytes_sent += in_flight.popleft()[1]
        in_flight.append((completion, payload.size_bytes, payload, handle))

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
