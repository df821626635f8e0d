#!/usr/bin/env python
"""Writing semantic hooks for your own protocol.

The paper argues (§4.7) that other agreement protocols can benefit from a
semantically-extended gossip substrate: whenever a protocol has messages
that supersede earlier ones, filtering applies; whenever a step collects
votes, aggregation applies. This example shows the full recipe on a toy
protocol — a distributed *watermark* agreement where processes broadcast
monotonically increasing progress announcements:

* filtering rule: an announcement with a higher watermark makes every
  lower announcement from the same process obsolete for a peer;
* aggregation rule: pending announcements from several processes merge
  into a single vector announcement (reversible).

The gossip layer is used exactly as Paxos uses it — no changes needed.

Run:  python examples/custom_semantics.py
"""

from repro.gossip.cache import InternedSeenCache
from repro.gossip.hooks import SemanticHooks
from repro.gossip.node import GossipCosts, GossipNode
from repro.net.channel import DirectedLink, LinkConfig
from repro.net.message import Payload, UidInterner
from repro.net.overlay import generate_overlay
from repro.net.topology import Topology
from repro.net.transport import Transport
from repro.sim.kernel import Simulator
from repro.sim.random import make_stream

N = 13


class Announce(Payload):
    """Process ``sender`` reached progress ``watermark``."""

    __slots__ = ("sender", "watermark")

    def __init__(self, sender, watermark):
        super().__init__(("ANN", sender, watermark), 64)
        self.sender = sender
        self.watermark = watermark


class VectorAnnounce(Payload):
    """Several announcements merged: {sender: watermark}."""

    __slots__ = ("vector",)

    aggregated = True

    def __init__(self, vector):
        uid = ("VANN", tuple(sorted(vector.items())))
        super().__init__(uid, 64 + 4 * len(vector))
        self.vector = dict(vector)


class WatermarkSemantics(SemanticHooks):
    """Filtering + aggregation for the watermark protocol."""

    def __init__(self):
        self.highest_sent = {}  # peer -> {sender: watermark}
        self.filtered = 0

    def validate(self, payload, peer_id):
        if not isinstance(payload, (Announce, VectorAnnounce)):
            return True
        sent = self.highest_sent.setdefault(peer_id, {})
        items = ([(payload.sender, payload.watermark)]
                 if isinstance(payload, Announce)
                 else payload.vector.items())
        useful = False
        for sender, watermark in items:
            if watermark > sent.get(sender, -1):
                sent[sender] = watermark
                useful = True
        if not useful:
            self.filtered += 1
        return useful

    def aggregate(self, payloads, peer_id):
        vector = {}
        passthrough = []
        for payload in payloads:
            if isinstance(payload, Announce):
                if payload.watermark > vector.get(payload.sender, -1):
                    vector[payload.sender] = payload.watermark
            elif isinstance(payload, VectorAnnounce):
                for sender, watermark in payload.vector.items():
                    if watermark > vector.get(sender, -1):
                        vector[sender] = watermark
            else:
                passthrough.append(payload)
        if len(vector) + len(passthrough) >= len(payloads):
            return payloads  # nothing to gain
        if len(vector) == 1:
            ((sender, watermark),) = vector.items()
            return [Announce(sender, watermark)] + passthrough
        return [VectorAnnounce(vector)] + passthrough

    def disaggregate(self, payload):
        if isinstance(payload, VectorAnnounce):
            return [Announce(s, w) for s, w in sorted(payload.vector.items())]
        return [payload]


def build(sim, semantic):
    topology = Topology(N)
    overlay = generate_overlay(N, 2, make_stream(7, "overlay"))
    transports = [Transport(i) for i in range(N)]
    link_config = LinkConfig()
    for edge in overlay.edges:
        a, b = sorted(edge)
        transports[a].connect(DirectedLink(
            sim, a, b, topology.latency_s(a, b), link_config,
            transports[b].deliver))
        transports[b].connect(DirectedLink(
            sim, b, a, topology.latency_s(b, a), link_config,
            transports[a].deliver))
    progress = [dict() for _ in range(N)]
    nodes = []
    # One interner for the whole overlay: a payload's dense id is stamped
    # on it by the first cache that sees it and read by every later one.
    interner = UidInterner()
    for i in range(N):
        hooks = WatermarkSemantics() if semantic else None
        node = GossipNode(sim, i, transports[i], costs=GossipCosts(),
                          hooks=hooks,
                          cache=InternedSeenCache(interner=interner))
        node.deliver = (lambda p, i=i:
                        progress[i].__setitem__(p.sender, max(
                            progress[i].get(p.sender, -1), p.watermark))
                        if isinstance(p, Announce) else None)
        nodes.append(node)
    for i in range(N):
        for peer in overlay.peers(i):
            nodes[i].add_peer(peer)
    return nodes, progress


def run(semantic):
    sim = Simulator(seed=7)
    nodes, progress = build(sim, semantic)
    # Every process announces watermarks 0..19 as a burst: several
    # announcements are in flight together, giving the semantic layer
    # something to merge and supersede.
    for i in range(N):
        for watermark in range(20):
            sim.schedule(0.0001 * i,
                         nodes[i].broadcast, Announce(i, watermark))
    sim.run(until=3.0)
    received = sum(node.stats.received for node in nodes)
    converged = all(
        all(view.get(sender) == 19 for sender in range(N))
        for view in progress
    )
    return received, converged


def main():
    classic_received, classic_ok = run(semantic=False)
    semantic_received, semantic_ok = run(semantic=True)
    print("Watermark agreement over gossip, {} processes:".format(N))
    print("  classic gossip : {:6d} messages received, converged={}".format(
        classic_received, classic_ok))
    print("  semantic hooks : {:6d} messages received, converged={}".format(
        semantic_received, semantic_ok))
    print("  traffic saved  : {:.0%}".format(
        1 - semantic_received / classic_received))
    assert classic_ok and semantic_ok


if __name__ == "__main__":
    main()
