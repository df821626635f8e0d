"""Tests for the gossip node: dissemination, dedup, hooks, stats."""

import pytest

from repro.gossip.cache import InternedSeenCache
from repro.gossip.hooks import SemanticHooks
from repro.gossip.node import GossipCosts, GossipNode
from repro.net.channel import LinkConfig, connect
from repro.net.message import Payload, RawPayload, UidInterner
from repro.sim.kernel import Simulator


def build_mesh(sim, adjacency, hooks_factory=None, costs=None,
               link_config=None, deliveries=None, loss_hook=None,
               link_cls=None):
    """Wire GossipNodes over the given adjacency {node: [peers]}; links of
    ``link_cls`` (a reference link) let a test read their internals."""
    n = len(adjacency)
    costs = costs or GossipCosts(recv_fresh_s=1e-6, recv_dup_s=1e-6,
                                 send_per_peer_s=1e-6)
    link_config = link_config or LinkConfig(per_message_s=1e-6, per_byte_s=0.0)
    nodes = []
    interner = UidInterner()     # one per mesh: payloads carry one iid
    for i in range(n):
        hooks = hooks_factory(i) if hooks_factory else None
        node = GossipNode(sim, i, costs=costs, hooks=hooks,
                          cache=InternedSeenCache(1000, interner))
        if deliveries is not None:
            node.deliver = lambda p, i=i: deliveries[i].append(p.uid)
        nodes.append(node)
    for a in range(n):
        for b in adjacency[a]:
            if a < b:
                for src, dst in ((nodes[a], nodes[b]), (nodes[b], nodes[a])):
                    link = connect(src, dst, 0.001, link_config, loss_hook)
                    if link_cls is not None:
                        src.links[dst.process_id] = link_cls(
                            sim, link.src, link.dst, 0.001, link_config,
                            link.deliver, loss_hook)
    for i in range(n):
        for peer in adjacency[i]:
            nodes[i].add_peer(peer)
    return nodes


LINE = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}
RING = {0: [1, 4], 1: [0, 2], 2: [1, 3], 3: [2, 4], 4: [3, 0]}


def test_broadcast_reaches_all_nodes(sim):
    deliveries = [[] for _ in range(4)]
    nodes = build_mesh(sim, LINE, deliveries=deliveries)
    nodes[0].broadcast(RawPayload("m", 100))
    sim.run()
    assert all(d == ["m"] for d in deliveries)


def test_broadcast_delivered_locally_once(sim):
    deliveries = [[] for _ in range(4)]
    nodes = build_mesh(sim, LINE, deliveries=deliveries)
    nodes[1].broadcast(RawPayload("m", 100))
    sim.run()
    assert deliveries[1] == ["m"]


def test_rebroadcast_of_known_message_is_ignored(sim):
    deliveries = [[] for _ in range(4)]
    nodes = build_mesh(sim, LINE, deliveries=deliveries)
    nodes[0].broadcast(RawPayload("m", 100))
    nodes[0].broadcast(RawPayload("m", 100))
    sim.run()
    assert deliveries[0] == ["m"]
    assert deliveries[3] == ["m"]


def test_duplicates_suppressed_on_ring(sim):
    """On a cycle every node receives the message from both sides; the
    second copy is discarded by the duplication check."""
    deliveries = [[] for _ in range(5)]
    nodes = build_mesh(sim, RING, deliveries=deliveries)
    nodes[0].broadcast(RawPayload("m", 100))
    sim.run()
    assert all(d == ["m"] for d in deliveries)
    total_dups = sum(node.stats.duplicates for node in nodes)
    assert total_dups > 0


def test_message_not_returned_to_origin_peer(sim):
    """Push forwarding excludes the peer a message came from."""
    deliveries = [[] for _ in range(2)]
    nodes = build_mesh(sim, {0: [1], 1: [0]}, deliveries=deliveries)
    nodes[0].broadcast(RawPayload("m", 100))
    sim.run()
    # Node 1 received it from node 0 and has no other peer: no forwarding.
    assert nodes[1].stats.forwarded == 0
    # Node 0 therefore never receives a copy back.
    assert nodes[0].stats.received == 0


def test_validate_hook_filters_per_peer(sim):
    class DropForPeer3(SemanticHooks):
        def validate(self, payload, peer_id):
            return peer_id != 3

    deliveries = [[] for _ in range(4)]
    nodes = build_mesh(sim, LINE, deliveries=deliveries,
                       hooks_factory=lambda i: DropForPeer3())
    nodes[0].broadcast(RawPayload("m", 100))
    sim.run()
    assert deliveries[2] == ["m"]
    assert deliveries[3] == []  # node 2 filtered the send to node 3
    assert nodes[2].stats.filtered == 1


def test_aggregate_hook_merges_pending(sim):
    class MergeAll(SemanticHooks):
        def aggregate(self, payloads, peer_id):
            merged = RawPayload(("agg",) + tuple(p.uid for p in payloads),
                                sum(p.size_bytes for p in payloads))
            return [merged]

    # Slow link so messages accumulate in the send queue.
    slow = LinkConfig(per_message_s=0.05, per_byte_s=0.0)
    deliveries = [[] for _ in range(2)]
    nodes = build_mesh(sim, {0: [1], 1: [0]}, deliveries=deliveries,
                       link_config=slow,
                       hooks_factory=lambda i: MergeAll())
    for i in range(4):
        nodes[0].broadcast(RawPayload("m{}".format(i), 10))
    sim.run()
    # First message goes out alone; the other three merge into one.
    assert nodes[0].stats.aggregated_saved == 2
    assert len(deliveries[1]) == 2


def test_disaggregate_hook_unpacks_on_receipt(sim):
    class Packed(Payload):
        __slots__ = ("parts",)
        aggregated = True

        def __init__(self, parts):
            super().__init__(("packed",) + tuple(p.uid for p in parts), 10)
            self.parts = parts

    class PackHooks(SemanticHooks):
        def aggregate(self, payloads, peer_id):
            return [Packed(payloads)]

        def disaggregate(self, payload):
            if isinstance(payload, Packed):
                return list(payload.parts)
            return [payload]

    slow = LinkConfig(per_message_s=0.05, per_byte_s=0.0)
    deliveries = [[] for _ in range(3)]
    nodes = build_mesh(sim, {0: [1], 1: [0, 2], 2: [1]},
                       deliveries=deliveries, link_config=slow,
                       hooks_factory=lambda i: PackHooks())
    for i in range(3):
        nodes[0].broadcast(RawPayload("m{}".format(i), 10))
    sim.run()
    # Node 1 (and node 2, transitively) sees all original messages.
    assert sorted(deliveries[1]) == ["m0", "m1", "m2"]
    assert sorted(deliveries[2]) == ["m0", "m1", "m2"]
    assert nodes[1].stats.disaggregated > 0


def test_stats_received_and_delivered(sim):
    nodes = build_mesh(sim, LINE)
    nodes[0].broadcast(RawPayload("a", 10))
    nodes[3].broadcast(RawPayload("b", 10))
    sim.run()
    for node in nodes:
        assert node.stats.delivered == 2


def test_duplicate_fraction_stat(sim):
    nodes = build_mesh(sim, RING)
    for i in range(10):
        nodes[0].broadcast(RawPayload(("m", i), 10))
    sim.run()
    fraction = nodes[2].stats.duplicate_fraction()
    assert 0.0 < fraction < 1.0


def test_send_queue_capacity_drops(sim):
    slow = LinkConfig(per_message_s=10.0, per_byte_s=0.0)
    node = GossipNode(sim, 0, costs=GossipCosts(1e-6, 1e-6, 1e-6),
                      send_queue_capacity=2)
    connect(node, GossipNode(sim, 1), 0.001, slow)
    node.add_peer(1)
    for i in range(10):
        node.broadcast(RawPayload(("m", i), 10))
    sim.run(until=1.0)
    assert node.stats.send_queue_drops > 0


def test_loss_hook_reduces_deliveries(sim):
    deliveries = [[] for _ in range(4)]
    build_and = build_mesh(sim, LINE, deliveries=deliveries,
                           loss_hook=lambda dst: True)
    build_and[0].broadcast(RawPayload("m", 10))
    sim.run()
    # Local delivery only; every link arrival is lost.
    assert deliveries[0] == ["m"]
    assert deliveries[1] == []


def test_cpu_serializes_processing(sim):
    """Receive handling is charged to the CPU server one job at a time."""
    costs = GossipCosts(recv_fresh_s=0.1, recv_dup_s=0.1, send_per_peer_s=0.0)
    deliveries = [[] for _ in range(2)]
    times = []
    nodes = build_mesh(sim, {0: [1], 1: [0]}, costs=costs,
                       deliveries=deliveries)
    nodes[1].deliver = lambda p: times.append(sim.now)
    nodes[0].broadcast(RawPayload("a", 10))
    nodes[0].broadcast(RawPayload("b", 10))
    sim.run()
    assert len(times) == 2
    # Second delivery waits for the first's 0.1s CPU service.
    assert times[1] - times[0] == pytest.approx(0.1, abs=1e-6)


@pytest.mark.parametrize("field", GossipCosts.__slots__)
@pytest.mark.parametrize("bad", [-1e-3, float("nan"), float("inf")])
def test_costs_reject_negative_or_non_finite_times(field, bad):
    """A negative CPU time would complete work before it was submitted."""
    with pytest.raises(ValueError, match="GossipCosts." + field):
        GossipCosts(**{field: bad})
    assert getattr(GossipCosts(**{field: 0.0}), field) == 0.0


def test_peers_listing(sim):
    nodes = build_mesh(sim, LINE)
    assert nodes[1].peers() == [0, 2]


class _PassHooks(SemanticHooks):
    """Semantic hooks that do semantic work (override) but keep everything."""

    def validate(self, payload, peer_id):
        return True


def _run_broadcasts(hooks_factory, hook_s):
    """Two-node mesh, three broadcasts from node 0; returns the nodes."""
    sim = Simulator(seed=1)
    costs = GossipCosts(recv_fresh_s=1e-6, recv_dup_s=1e-6,
                        send_per_peer_s=1e-6, hook_s=hook_s)
    nodes = build_mesh(sim, {0: [1], 1: [0]}, costs=costs,
                       hooks_factory=hooks_factory)
    for i in range(3):
        nodes[0].broadcast(RawPayload("m{}".format(i), 10))
    # Fixed horizon: accounting-only CPU charges schedule no events under
    # the virtual-time server, so an open-ended run can end before they
    # complete; pinning the clock makes busy_time reads well-defined.
    sim.run(until=1.0)
    return nodes


def test_hook_cpu_time_charged_for_custom_hooks():
    """Regression: ``hook_s`` was accepted but never charged. Each message
    examined by a non-default validate/aggregate must cost CPU time."""
    free = _run_broadcasts(lambda i: _PassHooks(), 0.0)
    paid = _run_broadcasts(lambda i: _PassHooks(), 0.01)
    assert paid[0].hooks_charged
    # Node 0's sender validated each of the three broadcasts once.
    charged = (paid[0].cpu.busy_time - free[0].cpu.busy_time)
    assert charged == pytest.approx(3 * 0.01)


def test_noop_hooks_are_never_charged():
    """The default no-op hooks model classic gossip: no semantic work on
    the send path, so ``hook_s`` must not be charged."""
    free = _run_broadcasts(None, 0.0)
    paid = _run_broadcasts(None, 0.01)
    assert not paid[0].hooks_charged
    assert paid[0].cpu.busy_time == free[0].cpu.busy_time


def test_hooks_charged_detects_aggregate_override():
    class AggregateOnly(SemanticHooks):
        def aggregate(self, payloads, peer_id):
            return payloads

    sim = Simulator(seed=1)
    node = GossipNode(sim, 0, hooks=AggregateOnly())
    assert node.hooks_charged
    assert not GossipNode(sim, 1).hooks_charged


def test_aggregated_bundle_duplicates_counted_per_part(sim):
    """Regression: an aggregated bundle of k already-seen parts must count
    k duplicates (the paper's §4.3 per-message semantics, matching
    ``disaggregated``), not one — and a mixed bundle must still count its
    stale parts, which previously counted zero."""
    class Packed(Payload):
        __slots__ = ("parts",)
        aggregated = True

        def __init__(self, parts):
            super().__init__(("packed",) + tuple(p.uid for p in parts), 10)
            self.parts = parts

    class PackHooks(SemanticHooks):
        def disaggregate(self, payload):
            return list(payload.parts)

    node = GossipNode(sim, 0, hooks=PackHooks())
    stale = [RawPayload("m{}".format(i), 10) for i in range(3)]
    for part in stale:
        node.cache.register(part.uid)

    node._on_link_receive(1, Packed(stale))
    assert node.stats.received == 1
    assert node.stats.duplicates == 3

    mixed = Packed([stale[0], stale[1], RawPayload("fresh", 10)])
    node._on_link_receive(1, mixed)
    assert node.stats.duplicates == 5
    sim.run()
    assert node.stats.delivered == 1


@pytest.mark.parametrize("setup", ["gossip", "semantic"])
def test_fan_out_follows_the_overlays_peer_order(setup, monkeypatch):
    """Each node is wired with one call that rebuilds the fan-out once, and
    the fan-out visits its peers in the overlay's order."""
    from repro.runtime.deployment import build_deployment
    from tests.conftest import fast_config

    rebuilds = []
    real = GossipNode._rebuild_forward
    monkeypatch.setattr(GossipNode, "_rebuild_forward",
                        lambda node: rebuilds.append(node) or real(node))
    deployment = build_deployment(fast_config(setup=setup, n=13))
    assert sorted(node.process_id for node in rebuilds) == list(range(13))
    for node in deployment.nodes:
        peers = list(deployment.overlay.peers(node.process_id))
        assert [peer for peer, _ in node._fwd_pairs] == peers
        assert [sender.peer_id for _, sender in node._fwd_pairs] == peers
        assert node._fanout == len(peers)


@pytest.mark.parametrize("fanout", [0, 1, 2, 5, 12])
@pytest.mark.parametrize("costs", [
    GossipCosts(),
    GossipCosts(recv_fresh_s=1.7e-5, send_per_peer_s=3.3e-6),
    GossipCosts(recv_fresh_s=0.1, send_per_peer_s=0.7),
])
def test_service_times_are_the_python_arithmetic_bit_for_bit(fanout, costs):
    sim = Simulator(seed=1)
    adjacency = {0: list(range(1, fanout + 1))}
    adjacency.update({peer: [0] for peer in adjacency[0]})
    node = build_mesh(sim, adjacency, costs=costs)[0]
    receive = costs.recv_fresh_s + max(0, fanout - 1) * costs.send_per_peer_s
    broadcast = costs.recv_fresh_s + fanout * costs.send_per_peer_s
    assert node._svc_receive.hex() == receive.hex()
    assert node._svc_broadcast.hex() == broadcast.hex()
