"""Edge-case tests for the gossip node's receive and send paths."""

import pytest

from repro.gossip.cache import InternedSeenCache
from repro.gossip.hooks import SemanticHooks
from repro.net.channel import LinkConfig
from repro.net.message import Payload, RawPayload, UidInterner
from tests.gossip.test_node import LINE, build_mesh
from tests.reference.link import DirectedLink as ReferenceLink


class Packed(Payload):
    __slots__ = ("parts",)
    aggregated = True

    def __init__(self, parts):
        super().__init__(("packed",) + tuple(p.uid for p in parts), 10)
        self.parts = tuple(parts)


class PackHooks(SemanticHooks):
    def aggregate(self, payloads, peer_id):
        return [Packed(payloads)] if len(payloads) > 1 else payloads

    def disaggregate(self, payload):
        return list(payload.parts) if isinstance(payload, Packed) else [payload]


def _send_to(node, peer_id, payload):
    """One-peer send through the node's fan-out loop."""
    node._send(payload, ((peer_id, node._senders[peer_id]),))


def _committed(link):
    """Uids a reference link has committed and not yet serialised, oldest
    first."""
    slot = [link._payload.uid] if link._payload is not None else []
    return slot + [record[2].uid for record in link._behind or ()]


def test_aggregate_with_partially_known_parts(sim):
    """Disaggregated parts already seen are discarded; fresh ones flow."""
    slow = LinkConfig(per_message_s=0.05, per_byte_s=0.0)
    deliveries = [[] for _ in range(3)]
    nodes = build_mesh(sim, {0: [1], 1: [0, 2], 2: [1]},
                       deliveries=deliveries, link_config=slow,
                       hooks_factory=lambda i: PackHooks())
    # Node 2 already knows m0 (it broadcasts it itself); node 0's packed
    # batch then arrives at node 2 containing m0 (dup) and m1 (fresh).
    nodes[2].broadcast(RawPayload("m0", 10))
    nodes[0].broadcast(RawPayload("m0", 10))
    nodes[0].broadcast(RawPayload("m1", 10))
    sim.run()
    assert deliveries[2].count("m0") == 1
    assert deliveries[2].count("m1") == 1


def test_fully_duplicate_aggregate_counts_one_duplicate(sim):
    slow = LinkConfig(per_message_s=0.05, per_byte_s=0.0)
    nodes = build_mesh(sim, {0: [1], 1: [0]},
                       hooks_factory=lambda i: PackHooks(),
                       link_config=slow)
    # Node 1 already knows both ids (seeded straight into its cache, as
    # if learned through another path).
    nodes[1].cache.register(("raw", "a"))
    nodes[1].cache.register(("raw", "b"))
    nodes[0].broadcast(RawPayload(("raw", "a"), 10))
    nodes[0].broadcast(RawPayload(("raw", "b"), 10))
    sim.run()
    # Whatever node 0 sent (packed or not) is entirely duplicate at node 1.
    assert nodes[1].stats.duplicates > 0
    assert nodes[1].stats.delivered == 0


def test_tiny_cache_causes_refording_not_deadlock(sim):
    """With a 1-entry cache, evicted ids register as fresh again; the
    system re-delivers but terminates (no infinite forwarding loop in a
    line topology where forwarding never returns to the origin peer)."""
    deliveries = [[] for _ in range(4)]
    nodes = build_mesh(sim, LINE, deliveries=deliveries)
    interner = UidInterner()
    for node in nodes:
        node.cache = InternedSeenCache(1, interner)
    nodes[0].broadcast(RawPayload("m1", 10))
    nodes[0].broadcast(RawPayload("m2", 10))
    executed = sim.run(max_events=100_000)
    assert executed < 100_000  # terminated naturally
    assert "m1" in deliveries[3] and "m2" in deliveries[3]


class _DuckCache:
    def register_payload(self, payload):
        return True


@pytest.mark.parametrize("cache", [object(), _DuckCache()],
                         ids=["object", "duck-typed"])
def test_cache_setter_takes_only_an_interned_seen_cache(sim, cache):
    deliveries = [[] for _ in range(2)]
    nodes = build_mesh(sim, {0: [1], 1: [0]}, deliveries=deliveries)
    kept = nodes[1].cache
    with pytest.raises(TypeError, match=type(cache).__name__):
        nodes[1].cache = cache
    assert nodes[1].cache is kept
    nodes[0].broadcast(RawPayload("m", 10))
    sim.run()
    assert deliveries[1] == ["m"]
    assert kept.registered == 1


def test_crashed_node_breaks_line_topology(sim):
    deliveries = [[] for _ in range(4)]
    nodes = build_mesh(sim, LINE, deliveries=deliveries)
    nodes[1].crash()
    nodes[0].broadcast(RawPayload("m", 10))
    sim.run()
    assert deliveries[0] == ["m"]
    assert deliveries[2] == []  # the relay was down
    nodes[1].recover()
    nodes[0].broadcast(RawPayload("m2", 10))
    sim.run()
    assert "m2" in deliveries[2]


def test_broadcast_on_peerless_node_delivers_locally(sim):
    deliveries = [[]]
    nodes = build_mesh(sim, {0: []}, deliveries=deliveries)
    nodes[0].broadcast(RawPayload("m", 10))
    sim.run()
    assert deliveries[0] == ["m"]


def test_filter_everything_leaves_sender_idle(sim):
    class DropAll(SemanticHooks):
        def validate(self, payload, peer_id):
            return False

    deliveries = [[] for _ in range(2)]
    nodes = build_mesh(sim, {0: [1], 1: [0]}, deliveries=deliveries,
                       hooks_factory=lambda i: DropAll())
    for i in range(5):
        nodes[0].broadcast(RawPayload(("m", i), 10))
    sim.run()
    assert deliveries[1] == []
    assert nodes[0].stats.filtered == 5
    # The sender machinery is idle, not wedged.
    for sender in nodes[0]._senders.values():
        assert not sender.busy
        assert not sender.queue


def test_remove_peer_loses_the_queued_sends(sim):
    """Regression: remove_peer dropped the sender but left its wake-up
    armed, which later pumped the queued message onto the removed peer's
    link anyway."""
    slow = LinkConfig(per_message_s=1e-3, per_byte_s=0.0)
    nodes = build_mesh(sim, {0: [1], 1: [0]}, link_config=slow)
    sender = nodes[0]._senders[1]
    _send_to(nodes[0], 1, RawPayload("head", 10))   # idle: onto the wire
    _send_to(nodes[0], 1, RawPayload("next", 10))   # link busy: queued
    assert sender.queue and sender._wakeup_armed
    nodes[0].remove_peer(1)
    assert not sender.queue and not sender._wakeup_armed
    sim.run()
    assert sender.link.stats.sent == nodes[1].stats.received == 1
    assert sim.events_cancelled == 1


def test_jittered_link_backlog_goes_out_as_one_chained_round(sim):
    """A sender has one way to send whatever the link's jitter: a backlog
    is committed as one chained round costing one kernel event per
    transmitted message (its arrival) and no pacing event."""
    jittered = LinkConfig(per_message_s=1e-3, per_byte_s=0.0, jitter_s=5e-4)
    nodes = build_mesh(sim, {0: [1], 1: [0]}, link_config=jittered)
    sender = nodes[0]._senders[1]
    before = sim.events_scheduled
    _send_to(nodes[0], 1, RawPayload("head", 10))   # idle: onto the wire
    assert sim.events_scheduled == before + 1   # its arrival
    for i in range(5):                          # link busy: these queue up
        _send_to(nodes[0], 1, RawPayload(("m", i), 10))
    assert sim.events_scheduled == before + 2   # one lazily armed wake-up
    assert len(sender.queue) == 5
    # The wake-up fires as "head" finishes serialising (its arrival is a
    # latency away) and pumps the backlog: five arrivals, nothing else.
    assert sim.run(until=1e-3) == 1
    assert sim.events_scheduled == before + 2 + 5
    assert not sender.queue and not sender._wakeup_armed
    assert sender._free_at == pytest.approx(6e-3)
    assert sender.busy
    sim.run()
    assert not sender.busy
    stats = sender.link.stats
    assert stats.sent == stats.delivered == nodes[1].stats.received == 6


def test_one_forward_decides_each_peer_of_the_fan_out(sim):
    """One forward over four peers in four states: an idle wire, a busy
    wire with its wake-up armed, a busy wire without one (the forward arms
    it) and a peer whose message validate filters. Only the idle peer's
    message is committed; the filtered one is counted and charged like
    the admitted one. The mesh runs on the Python
    reference links, whose committed messages a test can read."""
    class SkipPeer4(SemanticHooks):
        def validate(self, payload, peer_id):
            return peer_id != 4

    deliveries = [[] for _ in range(5)]
    slow = LinkConfig(per_message_s=1e-3, per_byte_s=0.0)
    nodes = build_mesh(sim, {0: [1, 2, 3, 4], 1: [0], 2: [0], 3: [0],
                             4: [0]},
                       link_config=slow, deliveries=deliveries,
                       hooks_factory=lambda i: SkipPeer4(),
                       link_cls=ReferenceLink)
    node = nodes[0]
    senders = node._senders
    _send_to(node, 2, RawPayload("a", 10))      # onto peer 2's wire
    _send_to(node, 2, RawPayload("b", 10))      # queued, wake-up armed
    _send_to(node, 3, RawPayload("c", 10))      # onto peer 3's wire
    node._complete(RawPayload("m", 10), None)
    assert {p: _committed(senders[p].link) for p in (1, 2, 3, 4)} == {
        1: ["m"], 2: ["a"], 3: ["c"], 4: []}
    assert {p: [q.uid for q in senders[p].queue] for p in (1, 2, 3, 4)} == {
        1: [], 2: ["b", "m"], 3: ["m"], 4: []}
    assert [senders[p]._wakeup_armed for p in (1, 2, 3, 4)] == [
        False, True, True, False]
    assert (node.stats.forwarded, node.stats.filtered) == (4, 1)
    assert node.cpu.busy_time.hex() == "0x1.0c6f7a0b5ed8dp-20"
    assert sim.events_scheduled == 5            # 3 arrivals + 2 wake-ups
    sim.run()
    assert deliveries == [["m"], ["m"], ["a", "b", "m"], ["c", "m"], []]


class _LoggingLink(ReferenceLink):
    """A reference link that logs each commit (the instant and the
    completion it returned) and each arrival."""

    def __init__(self, *args):
        super().__init__(*args)
        self.log = []

    def commit(self, payload, args, at):
        done = super().commit(payload, args, at)
        self.log.append(("commit", payload.uid, self.sim.now, done))
        return done

    def _arrive(self, payload):
        self.log.append(("arrive", payload.uid, self.sim.now))
        super()._arrive(payload)


def test_crash_mid_round_sends_the_committed_chain_and_drops_the_queue(sim):
    """A node crashes while a batched round is chained on its busy link.
    What it committed is on the NIC: every message arrives a latency
    after the completion the link returned at commit. What waited in the
    send queue is lost. After recovery an enqueue pumps when the link
    frees."""
    slow = LinkConfig(per_message_s=1e-3, per_byte_s=0.0)
    deliveries = [[] for _ in range(2)]
    nodes = build_mesh(sim, {0: [1], 1: [0]}, link_config=slow,
                       deliveries=deliveries, link_cls=_LoggingLink)
    node = nodes[0]
    sender = node._senders[1]
    link = sender.link
    _send_to(node, 1, RawPayload("head", 10))   # idle: onto the wire
    for uid in ("r0", "r1", "r2"):
        _send_to(node, 1, RawPayload(uid, 10))  # queued behind "head"
    sim.run(until=1e-3)             # the wake-up chains them as one round
    sim.run(until=1.5e-3)           # "r0" serialising, two behind it
    assert _committed(link) == ["r0", "r1", "r2"]
    _send_to(node, 1, RawPayload("lost", 10))
    assert sender._wakeup_armed and [p.uid for p in sender.queue] == ["lost"]
    node.crash()
    assert not sender.queue
    assert _committed(link) == ["r0", "r1", "r2"]
    sim.run(until=2.5e-3)
    node.recover()
    _send_to(node, 1, RawPayload("after", 10))  # the link is still busy
    assert [p.uid for p in sender.queue] == ["after"]
    sim.run()
    commits = {uid: (now, done) for kind, uid, now, done in (
        entry for entry in link.log if entry[0] == "commit")}
    arrivals = {uid: now for kind, uid, now in (
        entry for entry in link.log if entry[0] == "arrive")}
    assert list(arrivals) == ["head", "r0", "r1", "r2", "after"]
    for uid, arrived in arrivals.items():
        assert arrived == commits[uid][1] + link.latency_s
    # "after" was committed the instant the round's last message freed
    # the link.
    assert commits["after"][0] == commits["r2"][1]
    assert deliveries[1] == ["head", "r0", "r1", "r2", "after"]
    assert node.stats.send_queue_drops == 0
