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
serialisation completion of a message handed over for an instant ``at``
is ``max(at, busy_until) + service`` the moment it is handed over. Every
transmission is therefore committed right then as exactly **one** kernel
event: the propagation arrival at ``completion + latency_s`` plus, on a
jittered link, one ``uniform(0, jitter_s)`` draw taken at that same
moment. Jitter is thus drawn in *commit* order — the order messages were
handed to the link — which, like everything else, is a pure function of
``(config, seed)``.

There are two ways in. :meth:`DirectedLink.transmit` ``(payload, at)``
checks the transmit queue bound first and is what the Baseline star
sends with: a star link's one feeder is its node's FIFO CPU, which
knows when a send's job completes as soon as it accepts the job, so the
node hands the message over right then with ``at`` = that completion
(never decreasing on a link), and the jitter draw happens at acceptance.
The bound is judged as the wire stands at ``at``: a message that
finishes serialising by then does not count against it. Called with the
payload alone, ``at`` is now. :meth:`DirectedLink.commit` has no bound:
the gossip senders pace themselves, so their wire is idle when they
commit a message at ``now``, or they chain a whole round onto it at once.

What the link keeps is ``busy_until`` and the messages not yet counted as
sent; a message counts once its completion has passed the real clock.
A message committed on a wire idle now has nothing ahead of it, so it
lives in three slots (completion, payload, arrival handle) and costs no
record; only a message committed behind work not yet serialised — a
chained round, or a star send while earlier ones are still in flight —
gets a ``(completion, size, payload, handle)`` record, in a deque the
link creates when the first such message waits and drops at the next
commit on an idle wire. The slot message, when there is one, is the
oldest.

:meth:`DirectedLink.degrade` re-times what has not finished serialising:
each such message's arrival is cancelled and committed again at
``completion + new delay`` (the new latency and, if jittered, a fresh draw,
in FIFO order: the slot message, then the records), which keeps the
documented "only messages serialised after the call see the new
parameters" contract. Messages already serialised are propagating and keep
the arrival they were given.
"""

from bisect import bisect_right
from collections import deque
from operator import itemgetter

from repro.sim.server import check_service_time

_completion = itemgetter(0)


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
        "sim", "src", "dst", "latency_s", "config", "_stats", "_busy_until",
        "_done", "_payload", "_handle", "_behind", "_jitter_rng", "_deliver",
        "_arrive_cb", "loss_hook", "_base_latency_s", "_base_config",
        "_base_jitter_rng",
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
        #: The message committed on an idle wire and not yet counted as
        #: sent: its serialisation completion, payload (None: no such
        #: message) and arrival handle.
        self._done = 0.0
        self._payload = None
        self._handle = None
        #: Messages committed behind a busy wire and not yet counted, as
        #: (completion, size_bytes, payload, arrival_handle) in completion
        #: order, after the slot message. The deque is created when a
        #: message first has to wait and dropped at the next commit on an
        #: idle wire: a link only ever handed messages while idle owns
        #: none.
        self._behind = None
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
        if self._payload is not None:
            sim.cancel(self._handle)
            self._handle = self._arm(self._done, self._payload)
        behind = self._behind
        if behind:
            for _ in range(len(behind)):
                completion, size, payload, handle = behind.popleft()
                sim.cancel(handle)
                behind.append((completion, size, payload,
                               self._arm(completion, payload)))

    def restore(self):
        """Undo any degradation (see :meth:`degrade`)."""
        self.degrade()

    @property
    def busy(self):
        """Whether committed work is still unserialised right now."""
        return self.sim.now < self._busy_until

    @property
    def queue_length(self):
        """Committed messages behind the oldest one not yet serialised."""
        return max(0, self._drain_sent(self.sim.now) - 1)

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
        removed = self._drain_sent(sim.now) - 1
        if removed <= 0:
            return 0
        behind = self._behind
        for _ in range(removed):
            sim.cancel(behind.pop()[3])
        self._busy_until = (self._done if self._payload is not None
                            else behind[0][0])
        return removed

    def transmit(self, payload, at=None):
        """Send a payload towards ``dst`` from instant ``at`` (default
        now): :meth:`commit` behind the transmit-queue bound.

        The bound counts the messages still serialising at ``at``, so a
        caller may hand a message over ahead of time as long as ``at``
        never decreases on the link. Returns False, and counts a drop,
        if the transmit queue was full.
        """
        if at is None:
            at = self.sim.now
        capacity = self.config.queue_capacity
        if capacity is not None and self._busy_until > at:
            # The slot and the records bound what is unfinished at
            # ``at``; only when they could exceed the capacity are the
            # records that finish by ``at`` found, by bisection.
            behind = self._behind
            unfinished = len(behind) if behind else 0
            if unfinished >= capacity:
                if self._payload is not None and self._done > at:
                    unfinished += 1
                elif unfinished:
                    unfinished -= bisect_right(behind, at, key=_completion)
                if unfinished > capacity:
                    self._stats.dropped_queue += 1
                    return False
        self.commit(payload, (payload,), at)
        return True

    def commit(self, payload, args, at):
        """Serialise ``payload`` from instant ``at`` (``>= now``), after
        the committed work, and arm the one event of its hop; returns the
        serialisation completion.

        No queue bound applies: senders that pace themselves (tracking
        the instant the link frees) call this with ``at`` = now, because
        their wire is idle by construction, or because they chain a round
        onto it whose entries model pacing, not queue contention. ``args``
        is the arrival's argument tuple ``(payload,)``; a node forwarding
        one payload to many peers passes one shared tuple.

        The arrival fires after the propagation delay: the latency plus,
        on a jittered link, one draw taken here — when the arrival is
        committed. :class:`LinkConfig` rejects negative times, so
        ``completion >= now`` and ``delay >= 0`` by construction and the
        arrival can take the kernel's unchecked hot path.
        """
        config = self.config
        size = payload.size_bytes
        service = config.per_message_s + size * config.per_byte_s
        sim = self.sim
        busy_until = self._busy_until
        completion = self._busy_until = (
            (at if busy_until <= at else busy_until) + service)
        # _arm, inlined: this runs once per hop.
        delay = self.latency_s
        if self._jitter_rng is not None:
            delay += self._jitter_rng.uniform(0.0, config.jitter_s)
        handle = sim.push_event(completion + delay, self._arrive_cb, args)
        stats = self._stats
        behind = self._behind
        now = sim.now
        if busy_until <= now:
            # Everything committed before has serialised: count it all,
            # let the records go with their deque and keep the new
            # message in the slots.
            last = self._payload
            if last is not None:
                stats.sent += 1
                stats.bytes_sent += last.size_bytes
            if behind is not None:
                for record in behind:
                    stats.sent += 1
                    stats.bytes_sent += record[1]
                self._behind = None
            self._done = completion
            self._payload = payload
            self._handle = handle
            return completion
        # _drain_sent, inlined: retiring before every append is what keeps
        # the records O(in-flight).
        last = self._payload
        if last is not None and self._done <= now:
            stats.sent += 1
            stats.bytes_sent += last.size_bytes
            self._payload = None
        if behind is None:
            behind = self._behind = deque()
        else:
            while behind and behind[0][0] <= now:
                stats.sent += 1
                stats.bytes_sent += behind.popleft()[1]
        behind.append((completion, size, payload, handle))
        return completion

    def _arm(self, completion, payload):
        """Schedule the arrival of a message serialising at ``completion``
        under the current propagation parameters; returns its handle."""
        delay = self.latency_s
        if self._jitter_rng is not None:
            delay += self._jitter_rng.uniform(0.0, self.config.jitter_s)
        return self.sim.push_event(completion + delay, self._arrive_cb,
                                   (payload,))

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
        """Count messages whose serialisation has completed; return the
        number still serialising or queued."""
        stats = self._stats
        pending = 0
        last = self._payload
        if last is not None:
            if self._done > now:
                pending = 1     # and nothing behind it has completed
            else:
                stats.sent += 1
                stats.bytes_sent += last.size_bytes
                self._payload = None
        behind = self._behind
        if behind:
            while behind and behind[0][0] <= now:
                stats.sent += 1
                stats.bytes_sent += behind.popleft()[1]
            pending += len(behind)
        return pending
