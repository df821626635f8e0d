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
lives in the link's one slot (completion, size, payload, arrival) and
costs no record; only a message committed behind work not yet serialised
— a chained round, or a star send while earlier ones are still in
flight — gets a 32-byte record, in a buffer the link allocates when the
first such message waits and frees at the next commit on an idle wire.
The slot message, when there is one, is the oldest.

:meth:`DirectedLink.degrade` re-times what has not finished serialising:
each such message's arrival is cancelled and committed again at
``completion + new delay`` (the new latency and, if jittered, a fresh draw,
in FIFO order: the slot message, then the records), which keeps the
documented "only messages serialised after the call see the new
parameters" contract. Messages already serialised are propagating and keep
the arrival they were given. Its arguments are checked, because the
re-timed arrivals are pushed unchecked: ``latency_factor`` must be finite
and > 0, ``extra_jitter_s`` finite and >= 0, and ``extra_jitter_s > 0``
needs a ``jitter_rng`` to draw from; anything else raises
:class:`ValueError` naming the field.

:class:`DirectedLink` and its :class:`LinkStats` are compiled
(``repro/sim/_kernel/link.c``, one extension with the event heap the
arrivals go into); the Python reference model they replaced is
`tests/reference/link.py`.
``DirectedLink(sim, src, dst, latency_s, config, deliver,
loss_hook=None)`` reads ``config`` when it is set (at construction and
by :meth:`DirectedLink.degrade`). Its surface: ``commit``, ``transmit``,
``degrade``, ``restore``, ``stats`` (drained to now), ``busy``,
``queue_length``, a settable ``loss_hook``, ``config``, ``latency_s``,
``deliver``, ``src``, ``dst`` and ``sim``; each arrival event calls its
``_arrive``, which calls ``deliver(src, payload)``.

Nothing sits between a link and the nodes at its ends: :func:`connect`
builds the link ``src -> dst`` with ``deliver`` fixed to the destination
node's ``_on_link_receive``, and files it in the source node's ``links``
(a dict by destination id, in connect order).
"""

from repro.sim.events import compiled
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


LinkStats = compiled.LinkStats
DirectedLink = compiled.DirectedLink


def connect(src, dst, latency_s, config, loss_hook=None):
    """Build the directed link from node ``src`` to node ``dst``.

    Arrivals go straight into ``dst._on_link_receive``; the link joins
    ``src.links`` under ``dst``'s id and is returned.
    """
    link = DirectedLink(src.sim, src.process_id, dst.process_id, latency_s,
                        config, dst._on_link_receive, loss_hook)
    src.links[dst.process_id] = link
    return link
