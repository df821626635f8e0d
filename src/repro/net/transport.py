"""Process-facing point-to-point transport.

A :class:`Transport` owns the outgoing :class:`DirectedLink` objects of one
process and hands received payloads to a registered callback. It is the
layer both communication substrates build on: the Baseline node sends on
its links directly (coordinator connected to everyone) and the gossip
layer uses it for its per-peer links. Sending is the links' business
(:meth:`DirectedLink.transmit` / :meth:`DirectedLink.commit`).
"""


class Transport:
    """Outgoing links and receive dispatch for one process."""

    __slots__ = ("process_id", "_links", "_inbound", "_on_receive")

    def __init__(self, process_id):
        self.process_id = process_id
        self._links = {}
        self._inbound = []
        self._on_receive = None

    def connect(self, link):
        """Register the outgoing link to ``link.dst``."""
        if link.src != self.process_id:
            raise ValueError(
                "link src {} does not match transport owner {}".format(
                    link.src, self.process_id
                )
            )
        self._links[link.dst] = link

    def accept(self, link):
        """Register an inbound link whose arrivals target this transport.

        Once the receive callback is claimed, the link's deliver is
        rebound straight to it — the :meth:`deliver` dispatch frame is
        hot-path overhead, one call per arriving message.
        """
        self._inbound.append(link)
        if self._on_receive is not None:
            link.rebind_deliver(self._on_receive)

    def on_receive(self, callback):
        """Register ``callback(src_id, payload)`` for inbound messages."""
        self._on_receive = callback
        for link in self._inbound:
            link.rebind_deliver(callback)

    def deliver(self, src, payload):
        """Entry point wired into the inbound links' deliver callbacks."""
        if self._on_receive is not None:
            self._on_receive(src, payload)

    def peers(self):
        """Ids of directly connected processes."""
        return list(self._links)

    def link_to(self, dst):
        """The outgoing link towards ``dst`` (KeyError if not connected)."""
        return self._links[dst]

    def links(self):
        """All outgoing links owned by this transport."""
        return list(self._links.values())
