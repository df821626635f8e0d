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
completion of an accepted message is known at submit time and a jitter-free
link (the default configuration) schedules exactly **one** kernel event per
hop — the propagation arrival at ``completion + latency`` — plus a pacing
event at ``completion`` only when the sender asked for ``on_wire``. Jittered
links take a two-event path (serialisation completion, then arrival) so the
``link-jitter`` RNG is drawn at the instant each message finishes
serialising. :meth:`degrade` converts not-yet-serialised fast-path messages
onto the two-event path so they observe the post-degradation
latency/jitter, preserving the documented "only messages serialised after
the call see the new parameters" contract.
"""

from collections import deque

from repro.sim.server import FifoServer


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
        Half-width of uniform propagation jitter (seconds); 0 disables.
    """

    __slots__ = ("per_message_s", "per_byte_s", "queue_capacity", "jitter_s")

    def __init__(self, per_message_s=60e-6, per_byte_s=8e-9,
                 queue_capacity=20_000, jitter_s=0.0):
        self.per_message_s = per_message_s
        self.per_byte_s = per_byte_s
        self.queue_capacity = queue_capacity
        self.jitter_s = jitter_s


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
        #: Fast-path messages not yet drained into ``stats.sent``, as
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

        Fast-path messages count as ``sent`` once their serialisation
        completion has passed — the same instant the two-event path's
        completion event increments the counter.
        """
        self._drain_sent(self.sim.now)
        return self._stats

    def degrade(self, latency_factor=1.0, extra_jitter_s=0.0, jitter_rng=None):
        """Degrade propagation relative to the link's pristine parameters.

        Multiplies the one-way latency by ``latency_factor`` and widens the
        uniform jitter by ``extra_jitter_s`` (drawn from ``jitter_rng``).
        Neutral arguments (factor 1, no extra jitter) restore the link.
        Queued and in-flight messages are unaffected; only messages
        serialised after the call see the new parameters.
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
        self._requeue_in_flight()

    def restore(self):
        """Undo any degradation (see :meth:`degrade`)."""
        self.degrade()

    @property
    def fast_path(self):
        """Whether :meth:`transmit_timed` will take the single-event hop."""
        return self._jitter_rng is None

    @property
    def busy(self):
        return self._server.busy

    @property
    def queue_length(self):
        return self._server.queue_length

    def transmit_timed(self, payload):
        """Fast-path transmit that returns the serialisation completion.

        Senders that pace themselves arithmetically (tracking when the
        link frees instead of asking for an ``on_wire`` event) call this
        first: when the single-event hop applies, the payload is committed
        to the wire, exactly one arrival event is scheduled, and the
        instant the link frees is returned. Returns ``None`` on a jittered
        link — the caller must then fall back to :meth:`transmit`.

        Callers are expected to transmit only while the link is idle, so a
        queue-full drop cannot normally occur here; if it does, the drop
        is counted and the current time is returned (the link is free).
        """
        if self._jitter_rng is not None:
            return None
        config = self.config
        service = config.per_message_s + payload.size_bytes * config.per_byte_s
        completion = self._submit_fast(service, payload)
        sim = self.sim
        if completion is None:
            return sim.now
        # completion >= now by construction, so the arrival can take the
        # kernel's unchecked hot path.
        event = sim.push_event(completion + self.latency_s,
                               self._arrive_cb, (payload,))
        self._drain_sent(sim.now)
        self._in_flight.append((completion, payload.size_bytes,
                                payload, event))
        return completion

    def transmit_chained(self, payload):
        """Chain a payload behind the link's committed work; fast path only.

        The batched gossip pump calls this for every message of a
        validated round in one go: each serialisation is appended to the
        transmission server's busy tail (:meth:`FifoServer.submit_chain`)
        and exactly one arrival event is armed at its arithmetic
        completion — the same ``(time, seq)`` positions a per-message pump
        paced by wake-up events would have produced. Callers must check
        :attr:`fast_path` first; chains never drop (the sender paces
        itself, so chain entries model pacing, not queue contention).
        Returns the serialisation completion.
        """
        config = self.config
        service = config.per_message_s + payload.size_bytes * config.per_byte_s
        completion = self._submit_chain(service)
        sim = self.sim
        event = sim.push_event(completion + self.latency_s,
                               self._arrive_cb, (payload,))
        self._drain_sent(sim.now)
        self._in_flight.append((completion, payload.size_bytes,
                                payload, event))
        return completion

    def abort_pending_chain(self):
        """Withdraw chained messages that have not started serialising.

        Called when the sending node crashes mid-round: the reference
        pump would simply never have transmitted the rest of the round.
        The message in service stays — it is on the wire and arrives, as
        it does in the reference — while queued chain entries are removed
        from the transmission server and their pre-armed arrival events
        cancelled. Entries already converted to the two-event path by
        :meth:`degrade` are no longer in ``_in_flight`` and are left
        alone. Returns the number of withdrawn messages.
        """
        if not self._in_flight:
            # A mid-round degrade moved the chain onto the two-event
            # serialisation path (emptying ``_in_flight``): those
            # messages' serialisation events are armed and will fire, so
            # their server jobs must stand.
            return 0
        removed, busy_until = self._server.abort_queued(self.sim.now)
        if removed:
            in_flight = self._in_flight
            sim = self.sim
            while in_flight and in_flight[-1][0] > busy_until:
                sim.cancel(in_flight.pop()[3])
        return removed

    def transmit(self, payload, on_wire=None):
        """Send a payload towards ``dst``.

        ``on_wire`` (optional, zero-arg) fires when the message finishes
        serialising — i.e. when the link is free for the next message —
        which lets per-peer gossip senders pace themselves.
        Returns False if the transmit queue was full.
        """
        config = self.config
        service = config.per_message_s + payload.size_bytes * config.per_byte_s
        if self._jitter_rng is None:
            # Fast path: the serialisation completion is arithmetic, so the
            # only event this hop needs is the propagation arrival (plus a
            # pacing wake-up when the sender asked for one). ``args`` carry
            # the payload and on_wire to _on_queue_drop.
            completion = self._submit_timed(service, None, payload, on_wire)
            if completion is None:
                return False
            sim = self.sim
            event = sim.push_event(completion + self.latency_s,
                                   self._arrive_cb, (payload,))
            self._drain_sent(sim.now)
            self._in_flight.append((completion, payload.size_bytes,
                                    payload, event))
            if on_wire is not None:
                sim.push_event(completion, on_wire, ())
            return True
        return self._server.submit(service, self._on_serialised, payload, on_wire)

    def _on_queue_drop(self, fn, args):
        self._stats.dropped_queue += 1
        # Still notify the sender that the link "consumed" the message so
        # pacing callbacks do not stall.
        on_wire = args[1]
        if on_wire is not None:
            on_wire()

    def _on_serialised(self, payload, on_wire):
        stats = self._stats
        stats.sent += 1
        stats.bytes_sent += payload.size_bytes
        delay = self.latency_s
        if self._jitter_rng is not None:
            delay += self._jitter_rng.uniform(0.0, self.config.jitter_s)
        self.sim.schedule(delay, self._arrive_cb, payload)
        if on_wire is not None:
            on_wire()

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
        """Count fast-path messages whose serialisation has completed."""
        in_flight = self._in_flight
        if not in_flight:
            return
        stats = self._stats
        while in_flight and in_flight[0][0] <= now:
            record = in_flight.popleft()
            stats.sent += 1
            stats.bytes_sent += record[1]

    def _requeue_in_flight(self):
        """Move not-yet-serialised fast-path messages onto the two-event path.

        Called by :meth:`degrade`: those messages' arrival events were
        computed from the pre-degradation latency, but they serialise
        *after* the change and must observe the new parameters. Each gets
        its pre-computed arrival cancelled and a serialisation-completion
        event scheduled instead, which re-reads latency (and draws jitter)
        at the instant the message finishes serialising.
        """
        in_flight = self._in_flight
        if not in_flight:
            return
        sim = self.sim
        self._drain_sent(sim.now)
        while in_flight:
            completion, _size, payload, event = in_flight.popleft()
            sim.cancel(event)
            # on_wire=None: the pacing event (if any) was scheduled
            # separately at transmit time and still fires at ``completion``.
            sim.schedule_at(completion, self._on_serialised, payload, None)
