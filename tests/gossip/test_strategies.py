"""Tests for the pull and push-pull dissemination strategies."""

import pytest

from repro.gossip.cache import InternedSeenCache
from repro.gossip.node import GossipCosts
from repro.gossip.strategies import (
    MessageStore,
    PullGossipNode,
    PullRequest,
    PullResponse,
    PushPullGossipNode,
)
from repro.net.channel import LinkConfig, connect
from repro.net.message import RawPayload, UidInterner


def build_mesh(sim, adjacency, node_class, deliveries=None, loss_hook=None,
               **node_kwargs):
    n = len(adjacency)
    costs = GossipCosts(recv_fresh_s=1e-6, recv_dup_s=1e-6,
                        send_per_peer_s=1e-6)
    link_config = LinkConfig(per_message_s=1e-6, per_byte_s=0.0)
    nodes = []
    interner = UidInterner()     # one per mesh: payloads carry one iid
    for i in range(n):
        node = node_class(sim, i, costs=costs,
                          cache=InternedSeenCache(10_000, interner),
                          **node_kwargs)
        if deliveries is not None:
            node.deliver = lambda p, i=i: deliveries[i].append(p.uid)
        nodes.append(node)
    for a in range(n):
        for b in adjacency[a]:
            if a < b:
                connect(nodes[a], nodes[b], 0.001, link_config, loss_hook)
                connect(nodes[b], nodes[a], 0.001, link_config, loss_hook)
    for i in range(n):
        for peer in adjacency[i]:
            nodes[i].add_peer(peer)
        nodes[i].start()
    return nodes


LINE = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}


class TestMessageStore:
    def test_add_and_contains(self):
        store = MessageStore()
        payload = RawPayload("a", 10)
        store.add(payload)
        assert "a" in store
        assert len(store) == 1

    def test_duplicate_add_ignored(self):
        store = MessageStore()
        store.add(RawPayload("a", 10))
        store.add(RawPayload("a", 10))
        assert len(store) == 1

    def test_capacity_evicts_oldest(self):
        store = MessageStore(capacity=2)
        for uid in ("a", "b", "c"):
            store.add(RawPayload(uid, 10))
        assert "a" not in store
        assert "c" in store

    def test_missing_from_digest(self):
        store = MessageStore()
        for uid in ("a", "b", "c"):
            store.add(RawPayload(uid, 10))
        missing = store.missing_from(frozenset(["b"]))
        assert [p.uid for p in missing] == ["a", "c"]

    def test_missing_respects_limit(self):
        store = MessageStore()
        for i in range(10):
            store.add(RawPayload(("m", i), 10))
        assert len(store.missing_from(frozenset(), limit=3)) == 3

    def test_digest(self):
        store = MessageStore()
        store.add(RawPayload("a", 10))
        assert store.digest() == frozenset(["a"])


class TestControlMessages:
    def test_pull_request_size_scales_with_digest(self):
        small = PullRequest(0, frozenset(["a"]), 1)
        large = PullRequest(0, frozenset(("m", i) for i in range(10)), 2)
        assert large.size_bytes > small.size_bytes

    def test_pull_response_size_includes_payloads(self):
        response = PullResponse(0, [RawPayload("a", 100)], 1)
        assert response.size_bytes == 164

    def test_control_uids_unique_per_seq(self):
        a = PullRequest(0, frozenset(), 1)
        b = PullRequest(0, frozenset(), 2)
        assert a.uid != b.uid


class TestPullGossip:
    def test_broadcast_stays_local_until_pulled(self, sim):
        deliveries = [[] for _ in range(4)]
        nodes = build_mesh(sim, LINE, PullGossipNode, deliveries=deliveries,
                           pull_interval=0.05)
        nodes[0].broadcast(RawPayload("m", 100))
        sim.run(until=0.005)  # before any pull round
        assert deliveries[0] == ["m"]
        assert deliveries[1] == []

    def test_message_spreads_via_pull_rounds(self, sim):
        deliveries = [[] for _ in range(4)]
        nodes = build_mesh(sim, LINE, PullGossipNode, deliveries=deliveries,
                           pull_interval=0.02)
        nodes[0].broadcast(RawPayload("m", 100))
        sim.run(until=2.0)
        assert all(d == ["m"] for d in deliveries)
        assert sum(node.pull_messages_recovered for node in nodes) >= 3

    def test_pull_rounds_emit_requests(self, sim):
        nodes = build_mesh(sim, LINE, PullGossipNode, pull_interval=0.05)
        sim.run(until=0.5)
        assert all(node.pull_requests_sent > 0 for node in nodes)

    def test_no_response_when_nothing_missing(self, sim):
        nodes = build_mesh(sim, LINE, PullGossipNode, pull_interval=0.05)
        sim.run(until=0.5)  # nothing was ever broadcast
        assert all(node.pull_responses_sent == 0 for node in nodes)

    def test_stop_halts_pull_rounds(self, sim):
        nodes = build_mesh(sim, LINE, PullGossipNode, pull_interval=0.05)
        sim.run(until=0.2)
        counts = [node.pull_requests_sent for node in nodes]
        for node in nodes:
            node.stop()
        sim.run(until=1.0)
        assert [node.pull_requests_sent for node in nodes] == counts


class TestPushPullGossip:
    def test_pushes_eagerly(self, sim):
        deliveries = [[] for _ in range(4)]
        nodes = build_mesh(sim, LINE, PushPullGossipNode,
                           deliveries=deliveries, pull_interval=10.0)
        nodes[0].broadcast(RawPayload("m", 100))
        sim.run(until=0.5)  # well before the first pull round
        assert all(d == ["m"] for d in deliveries)

    def test_pull_repairs_push_losses(self, sim):
        """With every push delivery lost, periodic pull still spreads the
        message — the anti-entropy role from Bimodal Multicast."""
        lose_pushes = {"on": True}

        def loss_hook(dst):
            return lose_pushes["on"]

        deliveries = [[] for _ in range(4)]
        nodes = build_mesh(sim, LINE, PushPullGossipNode,
                           deliveries=deliveries, pull_interval=0.05,
                           loss_hook=loss_hook)
        nodes[0].broadcast(RawPayload("m", 100))
        sim.run(until=0.01)
        assert deliveries[1] == []  # push was lost
        lose_pushes["on"] = False   # channels heal; pull takes over
        sim.run(until=2.0)
        assert all(d == ["m"] for d in deliveries)

    def test_recovered_messages_are_pushed_on(self, sim):
        """A message recovered by pull is eagerly forwarded to peers."""
        drop_first_hop = {"count": 0}

        def loss_hook(dst):
            # Lose only the very first push (0 -> 1).
            if drop_first_hop["count"] == 0 and dst == 1:
                drop_first_hop["count"] += 1
                return True
            return False

        deliveries = [[] for _ in range(4)]
        nodes = build_mesh(sim, LINE, PushPullGossipNode,
                           deliveries=deliveries, pull_interval=0.05,
                           loss_hook=loss_hook)
        nodes[0].broadcast(RawPayload("m", 100))
        sim.run(until=2.0)
        assert all(d == ["m"] for d in deliveries)


class TestDeploymentIntegration:
    @pytest.mark.parametrize("strategy", ["pull", "push-pull"])
    def test_paxos_over_alternative_strategies(self, strategy):
        from repro.runtime.runner import run_experiment
        from tests.conftest import fast_config

        config = fast_config(setup="gossip", n=7, rate=30,
                             gossip_strategy=strategy, pull_interval=0.03,
                             drain=4.0)
        report = run_experiment(config)
        assert report.not_ordered == 0
        assert report.decided > 20

    def test_push_pull_stores_every_delivered_message(self):
        """Pushed single messages enter the store too, so a later pull
        round can serve them: loss-free, a node stores what it delivers."""
        from repro.runtime.runner import run_deployment
        from tests.conftest import fast_config

        deployment, _ = run_deployment(fast_config(
            setup="gossip", n=7, rate=30, gossip_strategy="push-pull"))
        delivered = [node.stats.delivered for node in deployment.nodes]
        assert [len(node.store) for node in deployment.nodes] == delivered
        assert min(delivered) > 0

    def test_invalid_strategy_rejected(self):
        from tests.conftest import fast_config

        with pytest.raises(ValueError):
            fast_config(gossip_strategy="carrier-pigeon")

    def test_pull_latency_bounded_by_round_period(self):
        """Pull dissemination works but pays round-trip rounds of latency
        (why the paper prefers push for consensus)."""
        from repro.runtime.runner import run_experiment
        from tests.conftest import fast_config

        push = run_experiment(fast_config(setup="gossip", n=7, rate=30))
        pull = run_experiment(fast_config(setup="gossip", n=7, rate=30,
                                          gossip_strategy="pull",
                                          pull_interval=0.05, drain=5.0))
        assert pull.avg_latency_s > push.avg_latency_s
