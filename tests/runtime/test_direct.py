"""Tests for the Baseline direct-communication node."""

import pytest

from repro.gossip.node import GossipCosts
from repro.net.channel import DirectedLink, LinkConfig
from repro.net.message import RawPayload
from repro.net.transport import Transport
from repro.runtime.direct import DirectNode


def build_star(sim, n=4, costs=None, config=None):
    """Hub (id 0) connected to spokes 1..n-1, as the Baseline setup."""
    costs = costs or GossipCosts(recv_fresh_s=1e-6, recv_dup_s=1e-6,
                                 send_per_peer_s=1e-6)
    config = config or LinkConfig(per_message_s=1e-6, per_byte_s=0.0)
    transports = [Transport(i) for i in range(n)]
    for i in range(1, n):
        transports[0].connect(DirectedLink(sim, 0, i, 0.001, config,
                                           transports[i].deliver))
        transports[i].connect(DirectedLink(sim, i, 0, 0.001, config,
                                           transports[0].deliver))
    deliveries = [[] for _ in range(n)]
    nodes = []
    for i in range(n):
        node = DirectNode(sim, i, transports[i], costs,
                          deliver=lambda p, i=i: deliveries[i].append(p.uid))
        nodes.append(node)
    return nodes, deliveries


def test_send_point_to_point(sim):
    nodes, deliveries = build_star(sim)
    nodes[1].send(0, RawPayload("m", 10))
    sim.run()
    assert deliveries[0] == ["m"]
    assert deliveries[2] == []


def test_send_to_self_is_local_delivery(sim):
    nodes, deliveries = build_star(sim)
    nodes[2].send(2, RawPayload("m", 10))
    sim.run()
    assert deliveries[2] == ["m"]
    assert nodes[2].stats.sent == 0


def test_send_all_reaches_every_spoke(sim):
    nodes, deliveries = build_star(sim)
    nodes[0].send_all(RawPayload("m", 10))
    sim.run()
    for i in range(4):
        assert deliveries[i] == ["m"]


def test_send_all_without_self(sim):
    nodes, deliveries = build_star(sim)
    nodes[0].send_all(RawPayload("m", 10), include_self=False)
    sim.run()
    assert deliveries[0] == []
    assert deliveries[1] == ["m"]


def test_cpu_charges_fanout(sim):
    """The hub's send_all is one CPU job of peers x send cost."""
    costs = GossipCosts(recv_fresh_s=0.0, recv_dup_s=0.0,
                        send_per_peer_s=0.1)
    nodes, deliveries = build_star(sim, costs=costs)
    nodes[0].send_all(RawPayload("m", 10), include_self=False)
    sim.run(until=0.25)
    assert deliveries[1] == []  # 3 peers x 0.1s still serialising
    sim.run(until=0.5)
    assert deliveries[1] == ["m"]


def test_a_send_schedules_no_handoff_event(sim):
    """A send's CPU job and its wire commit are one step: a send_all to
    k peers, run to drain, schedules k arrivals, k receive completions
    and one local delivery; a point-to-point send one of each."""
    nodes, deliveries = build_star(sim)
    k = len(nodes) - 1
    before = sim.events_scheduled
    nodes[0].send_all(RawPayload("m", 10))
    sim.run()
    assert deliveries == [["m"]] * (k + 1)
    assert sim.events_scheduled - before == 2 * k + 1
    before = sim.events_scheduled
    nodes[1].send(0, RawPayload("x", 10))
    sim.run()
    assert sim.events_scheduled - before == 2


def test_jittered_star_draws_when_the_send_is_accepted(sim):
    """On a jittered star the link-jitter draws are taken when the CPU
    accepts the send, one per peer, and none when the job completes."""
    config = LinkConfig(per_message_s=1e-6, per_byte_s=0.0, jitter_s=1e-3)
    nodes, deliveries = build_star(sim, config=config)
    stream = sim.rng("link-jitter")
    state = stream.getstate()
    nodes[0].send_all(RawPayload("m", 10), include_self=False)
    drawn = stream.getstate()
    assert drawn != state
    sim.run()
    assert stream.getstate() == drawn
    assert deliveries[1:] == [["m"]] * 3


def test_no_dedup_in_baseline(sim):
    """Unlike gossip, the direct node delivers every copy it receives."""
    nodes, deliveries = build_star(sim)
    nodes[1].send(0, RawPayload("m", 10))
    nodes[1].send(0, RawPayload("m", 10))
    sim.run()
    assert deliveries[0] == ["m", "m"]


def test_crash_stops_participation(sim):
    nodes, deliveries = build_star(sim)
    nodes[0].crash()
    nodes[1].send(0, RawPayload("in", 10))
    nodes[0].send_all(RawPayload("out", 10))
    sim.run()
    assert deliveries[0] == []
    assert deliveries[1] == []


def test_recover_resumes(sim):
    nodes, deliveries = build_star(sim)
    nodes[0].crash()
    nodes[0].recover()
    nodes[1].send(0, RawPayload("m", 10))
    sim.run()
    assert deliveries[0] == ["m"]


def test_stats(sim):
    nodes, _ = build_star(sim)
    nodes[0].send_all(RawPayload("m", 10), include_self=False)
    nodes[1].send(0, RawPayload("x", 10))
    sim.run()
    assert nodes[0].stats.sent == 3
    assert nodes[0].stats.received == 1
    assert nodes[1].stats.delivered == 1
