"""Direct (non-gossip) communication node for the Baseline setup.

In the Baseline setup (paper §4.1) the coordinator communicates directly
with every other process over a fully connected star; there is no epidemic
forwarding and no duplicate suppression. To keep the comparison fair the
Baseline charges the same CPU cost model as the gossip setups — receiving a
message and fanning out sends consume the same service times — so the
difference between setups is communication structure, not bookkeeping.

A send is one step: the CPU accepts its job, whose completion a FIFO
server knows at once, and the message is committed to each link to
serialise from that completion (:meth:`DirectedLink.transmit` with
``at``). No kernel event marks the hand-over.
"""

from repro.sim.actors import Actor
from repro.sim.server import FifoServer


class DirectStats:
    """Counters for the Baseline node; the gossip-only ones stay zero."""

    __slots__ = ("received", "delivered", "sent", "duplicates", "filtered",
                 "aggregated_saved", "disaggregated", "send_queue_drops")

    def __init__(self):
        self.received = 0
        self.delivered = 0
        self.sent = 0
        self.duplicates = 0
        self.filtered = 0
        self.aggregated_saved = 0
        self.disaggregated = 0
        self.send_queue_drops = 0


class DirectNode(Actor):
    """Point-to-point sender/receiver with a CPU service queue."""

    def __init__(self, sim, process_id, transport, costs, deliver=None, cpu=None):
        super().__init__(sim, "direct-{}".format(process_id))
        self.process_id = process_id
        self.transport = transport
        self.costs = costs
        self.deliver = deliver
        self.cpu = cpu or FifoServer(sim)
        self.stats = DirectStats()
        self.hooks = None           # no semantic layer on direct links
        self.alive = True
        transport.on_receive(self._on_link_receive)

    def start(self):
        """Nothing to arm: a direct node has no periodic work."""

    def crash(self):
        """Stop participating (crash-recovery model)."""
        self.alive = False

    def recover(self):
        self.alive = True

    def send(self, dst, payload):
        """Send to one process; a send to self is a local delivery."""
        if not self.alive:
            return
        if dst == self.process_id:
            self._local_delivery(payload)
            return
        self.stats.sent += 1
        at = self.cpu.submit_acct(self.costs.send_per_peer_s)
        self.transport.link_to(dst).transmit(payload, at)

    def send_all(self, payload, include_self=True):
        """Send to every connected peer (the coordinator's one-to-many)."""
        if not self.alive:
            return
        links = self.transport.links()
        self.stats.sent += len(links)
        at = self.cpu.submit_acct(len(links) * self.costs.send_per_peer_s)
        for link in links:
            link.transmit(payload, at)
        if include_self:
            self._local_delivery(payload)

    def _local_delivery(self, payload):
        self.cpu.submit_timed(self.costs.recv_fresh_s, self._deliver, payload)

    def _on_link_receive(self, src, payload):
        if not self.alive:
            return
        self.stats.received += 1
        self.cpu.submit_timed(self.costs.recv_fresh_s, self._deliver, payload)

    def _deliver(self, payload):
        self.stats.delivered += 1
        if self.deliver is not None:
            self.deliver(payload)
