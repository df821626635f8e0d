"""Tests for deployment wiring of the three setups."""

import pytest

from repro.checks.scenarios import scenario_config
from repro.core.semantics import PaxosSemantics
from repro.gossip.cache import InternedSeenCache
from repro.gossip.hooks import SemanticHooks
from repro.gossip.node import GossipNode
from repro.runtime.deployment import DEDUP_CACHE_CAPACITY, build_deployment
from repro.runtime.direct import DirectNode
from repro.runtime.runner import run_experiment
from tests.conftest import fast_config


def test_baseline_is_a_star_around_coordinator():
    deployment = build_deployment(fast_config(setup="baseline", n=7))
    assert deployment.overlay is None
    assert sorted(deployment.nodes[0].links) == [1, 2, 3, 4, 5, 6]
    for i in range(1, 7):
        assert list(deployment.nodes[i].links) == [0]
    assert all(type(node) is DirectNode for node in deployment.nodes)


def test_gossip_uses_overlay_links():
    deployment = build_deployment(fast_config(setup="gossip", n=9))
    overlay = deployment.overlay
    assert overlay is not None
    assert overlay.is_connected()
    for i in range(9):
        assert sorted(deployment.nodes[i].links) == list(overlay.peers(i))
        assert sorted(deployment.nodes[i].peers()) == list(overlay.peers(i))
    assert all(type(node) is GossipNode for node in deployment.nodes)


def test_gossip_nodes_have_noop_hooks():
    deployment = build_deployment(fast_config(setup="gossip", n=7))
    for node in deployment.nodes:
        assert type(node.hooks) is SemanticHooks


def test_semantic_nodes_have_paxos_hooks():
    deployment = build_deployment(fast_config(setup="semantic", n=7))
    for node in deployment.nodes:
        assert isinstance(node.hooks, PaxosSemantics)
        assert node.hooks.n == 7
    # Each node owns its own hook state.
    hooks = {id(node.hooks) for node in deployment.nodes}
    assert len(hooks) == 7


def test_semantics_flags_propagate():
    config = fast_config(setup="semantic", n=7, enable_aggregation=False)
    deployment = build_deployment(config)
    assert all(not node.hooks.enable_aggregation for node in deployment.nodes)
    assert all(node.hooks.enable_filtering for node in deployment.nodes)


def test_same_overlay_seed_means_same_overlay():
    a = build_deployment(fast_config(setup="gossip", overlay_seed=5))
    b = build_deployment(fast_config(setup="semantic", overlay_seed=5))
    assert a.overlay.edges == b.overlay.edges


def test_different_overlay_seeds_differ():
    a = build_deployment(fast_config(setup="gossip", overlay_seed=1, n=13))
    b = build_deployment(fast_config(setup="gossip", overlay_seed=2, n=13))
    assert a.overlay.edges != b.overlay.edges


def test_one_client_per_region():
    deployment = build_deployment(fast_config(n=7))
    assert len(deployment.clients) == 7
    for client in deployment.clients:
        assert client.process.process_id == client.client_id


def test_client_rate_split_evenly():
    deployment = build_deployment(fast_config(n=7, rate=70.0))
    assert all(client.rate == 10.0 for client in deployment.clients)


def test_loss_injector_only_when_configured():
    assert build_deployment(fast_config()).loss_injector is None
    lossy = build_deployment(fast_config(loss_rate=0.1))
    assert lossy.loss_injector is not None
    assert lossy.loss_injector.rate == 0.1


def test_every_node_has_a_seen_cache_over_the_deployment_interner():
    deployment = build_deployment(fast_config())
    for node in deployment.nodes:
        assert type(node.cache) is InternedSeenCache
        assert node.cache.capacity == DEDUP_CACHE_CAPACITY
        assert node.cache.interner is deployment.interner


def _assert_wiring(deployment, pairs):
    """Each link delivers straight into its destination node, and walking
    the nodes reads the links by source id, then in the order ``pairs``
    connected them (``a -> b`` before ``b -> a``)."""
    nodes = deployment.nodes
    links = [link for node in nodes for link in node.links.values()]
    directed = [edge for a, b in pairs for edge in ((a, b), (b, a))]
    assert [(link.src, link.dst) for link in links] == sorted(
        directed, key=lambda edge: edge[0])
    assert all(link.deliver == nodes[link.dst]._on_link_receive
               for link in links)
    engine = deployment.fault_engine
    assert engine is None or list(engine._links()) == links


@pytest.mark.parametrize("overrides", [
    dict(setup="baseline", coordinator_id=2), dict(setup="gossip"),
    dict(setup="semantic", gossip_strategy="push-pull")],
    ids=["baseline", "push", "push-pull"])
def test_links_deliver_into_their_nodes_in_connect_order(overrides):
    deployment = build_deployment(fast_config(n=9, **overrides))
    overlay = deployment.overlay
    pairs = ([(2, i) for i in range(9) if i != 2] if overlay is None
             else [sorted(edge) for edge in overlay.edges])
    _assert_wiring(deployment, pairs)


def test_links_of_a_join_deliver_into_their_nodes_in_connect_order():
    deployment = build_deployment(scenario_config("churn_smoke"))
    pairs = [sorted(edge) for edge in deployment.overlay.edges]
    membership = deployment.membership
    lazy = membership.connect_pair

    def recorded(a, b):
        created = lazy(a, b)
        if created:
            pairs.append((a, b))
        return created

    membership.connect_pair = recorded
    deployment.start()
    deployment.sim.run(until=0.7)               # process 8 joins at 0.55
    assert deployment.nodes[8].links
    _assert_wiring(deployment, pairs)


def test_a_star_around_another_coordinator_decides():
    """Process 0 is a spoke like any other."""
    report = run_experiment(fast_config(setup="baseline", coordinator_id=2))
    assert report.throughput > 0


def test_processes_wired_to_nodes():
    deployment = build_deployment(fast_config(n=7))
    for node, process in zip(deployment.nodes, deployment.processes):
        assert node.deliver == process.handle


def test_coordinator_role_assignment():
    deployment = build_deployment(fast_config(n=7))
    assert deployment.processes[0].is_coordinator
    assert all(not p.is_coordinator for p in deployment.processes[1:])


def test_retransmit_timeout_propagates():
    deployment = build_deployment(fast_config(retransmit_timeout=0.5))
    assert deployment.processes[0].retransmit_timeout == 0.5
