"""Lockstep property: the compiled gossip node against its Python model.

:class:`repro.gossip.node.GossipNode` runs its single-part receive, its
deliver-and-forward completion and its fan-out loop in C; the Python
they replaced is the reference model in tests/reference/node.py.
The property builds the same small mesh twice, one of compiled nodes and
one of reference nodes, each on its own simulator with the same seed,
drives one random op stream through both and requires at every step:

* all ten counters of every node;
* the same executed events (callback name and argument signature) at
  the same instants (``float.hex``), the same pushes, the same
  deliveries and the same tracer calls;
* every link's stats and every CPU's ``busy_time``, bit for bit;
* every sender's ``_free_at`` (``float.hex``) and ``_wakeup_armed``.

The stream has broadcasts, fresh, duplicate and aggregated receives
(from the links and straight into ``_on_link_receive``), crash and
recover and a direct write to ``alive``, ``add_peer`` and
``remove_peer``, hooks swapped in and out on nodes whose hooks are
charged and on nodes whose hooks are not (a Python ``validate``, a Python
``aggregate`` that packs a batch, and the compiled semantics of
:mod:`repro.core`, fed Phase 2b votes and Decisions), a tracer set and
unset, send queues small enough to fill, one reference link (the
``.commit`` path for a link that is not compiled) and process ids of
257 and more, which are distinct int objects wherever they are equal.
The reference nodes run the Python senders, so the compiled sender's
queue, wake-up and batched round — validate, aggregate, their counters,
tracer calls and CPU charge — are held to them too.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.semantics import PaxosSemantics
from repro.gossip.cache import InternedSeenCache
from repro.gossip.hooks import SemanticHooks
from repro.gossip.node import GossipCosts, GossipNode
from repro.net.channel import LinkConfig, connect
from repro.net.message import Payload, RawPayload, UidInterner
from repro.paxos.messages import Decision, Phase2b, Value
from repro.sim.kernel import Simulator
from tests.reference.link import DirectedLink as RefLink
from tests.reference.lockstep import Recorder, lockstep
from tests.reference.node import ReferenceNode

#: Process ids, spelled so that every use builds its own int object: an
#: ``exclude`` compared by identity would then miss.
IDS = ("0", "7", "300", "70000")
RING = ((0, 1), (1, 2), (2, 3), (3, 0))
#: The one directed link built from the reference model.
REF_LINK = (1, 2)
TICK = 1e-4
#: Every cost a non-dyadic microsecond multiple, so sums show their order.
COSTS = GossipCosts(recv_fresh_s=15e-6, recv_dup_s=3e-6,
                    send_per_peer_s=4e-6, hook_s=1e-6)
LINK = LinkConfig(per_message_s=2.1e-4, per_byte_s=8.3e-8)


def pid(index):
    return int(IDS[index])


class Packed(Payload):
    __slots__ = ("parts",)
    aggregated = True

    def __init__(self, parts):
        super().__init__(("packed",) + tuple(p.uid for p in parts), 20)
        self.parts = tuple(parts)


class PlainHooks(SemanticHooks):
    """Default validate and aggregate (not charged); unpacks aggregates."""

    def disaggregate(self, payload):
        return list(payload.parts) if isinstance(payload, Packed) else [payload]


class FilterHooks(PlainHooks):
    """Overrides validate: drops a message to every third peer index."""

    def validate(self, payload, peer_id):
        key = payload.uid[1]
        if not isinstance(key, int):
            key = len(payload.uid)
        return (key + peer_id) % 3 != 0


class PackHooks(PlainHooks):
    """Overrides aggregate in Python: packs a whole batch."""

    def aggregate(self, payloads, peer_id):
        return [Packed(payloads)]


#: What a ``hooks`` op installs, by index.
HOOKS = (PlainHooks, FilterHooks, lambda: PaxosSemantics(len(IDS)),
         PackHooks)


class _Mesh:
    """Four nodes of one class, fully connected, gossiping over a
    ring. Node 1 starts with the default hooks (so its hooks are never
    charged); node 0 filters in Python, node 2 runs the compiled
    semantics and node 3 packs its batches in Python."""

    def __init__(self, node_cls):
        self.recorder = Recorder()
        self.log = self.recorder.log
        self.sim = Simulator(seed=11, auditor=self.recorder)
        self.interner = UidInterner()
        self.nodes = []
        for i in range(len(IDS)):
            hooks = HOOKS[(1, 0, 2, 3)[i]]()
            node = node_cls(self.sim, pid(i), costs=COSTS, hooks=hooks,
                            cache=InternedSeenCache(64, self.interner),
                            send_queue_capacity=2)
            node.deliver = (lambda payload, i=i: self.recorder.note(
                "deliver", i, payload.uid))
            self.nodes.append(node)
        for a, src in enumerate(self.nodes):
            for b, dst in enumerate(self.nodes):
                if a != b:
                    connect(src, dst, 1e-3, LINK)
        src, dst = (self.nodes[i] for i in REF_LINK)
        src.links[dst.process_id] = RefLink(
            self.sim, src.process_id, dst.process_id, 1e-3, LINK,
            dst._on_link_receive)
        self.links = [link for node in self.nodes
                      for link in node.links.values()]
        for i, node in enumerate(self.nodes):
            node.add_peers([pid(b) for a, b in RING if a == i]
                           + [pid(a) for a, b in RING if b == i])

    def payload(self, uid, size):
        return RawPayload(("m", uid), size)

    def apply(self, op):
        kind = op[0]
        sim = self.sim
        if kind == "broadcast":
            self.nodes[op[1]].broadcast(self.payload(op[2], op[3]))
        elif kind == "receive":
            # Straight into the receive, as a link arrival from ``src``.
            node, src = self.nodes[op[1]], pid(op[2])
            node._on_link_receive(src, self.payload(op[3], 100))
        elif kind == "aggregate":
            node, src = self.nodes[op[1]], pid(op[2])
            parts = [self.payload(uid, 50) for uid in op[3]]
            node._on_link_receive(src, Packed(parts))
        elif kind == "crash":
            self.nodes[op[1]].crash()
        elif kind == "recover":
            self.nodes[op[1]].recover()
        elif kind == "alive":
            self.nodes[op[1]].alive = op[2]
        elif kind == "add_peer":
            node, peer = self.nodes[op[1]], pid(op[2])
            if op[1] != op[2] and peer not in node.peers():
                node.add_peer(peer)
        elif kind == "remove_peer":
            self.nodes[op[1]].remove_peer(pid(op[2]))
        elif kind == "hooks":
            self.nodes[op[1]].hooks = HOOKS[op[2]]()
        elif kind == "votes":
            for sender in op[3]:
                self.nodes[op[1]].broadcast(Phase2b(op[2], 1, "v", sender))
        elif kind == "decide":
            self.nodes[op[1]].broadcast(
                Decision(op[2], 1, Value("v", 0, 8)))
        elif kind == "obs":
            for node in self.nodes:
                node.obs = self.recorder if op[1] else None
        elif kind == "advance":
            sim.run(until=sim.now + op[1] * TICK)

    def snapshot(self):
        nodes = []
        for node in self.nodes:
            stats = node.stats
            senders = tuple(
                (peer_id, sender._free_at.hex(), sender._wakeup_armed,
                 len(sender.queue))
                for peer_id, sender in node._senders.items())
            nodes.append((
                stats.broadcasts, stats.received, stats.duplicates,
                stats.delivered, stats.forwarded, stats.filtered,
                stats.aggregated_in, stats.aggregated_saved,
                stats.disaggregated, stats.send_queue_drops,
                stats.duplicate_fraction().hex(), node.alive,
                node.cpu.busy_time.hex(), node._svc_receive.hex(),
                node._svc_broadcast.hex(), node._fanout,
                [peer_id for peer_id, _ in node._fwd_pairs], senders))
        links = [(link.stats.sent, link.stats.bytes_sent,
                  link.stats.delivered, link.busy) for link in self.links]
        return (nodes, links, self.sim.events_scheduled, self.sim.pending(),
                self.sim.events_cancelled)

    def state(self):
        return self.log, self.snapshot()

    def finish(self):
        self.sim.run()


NODE = st.integers(0, len(IDS) - 1)
UID = st.integers(0, 12)
NODE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("broadcast"), NODE, UID,
                  st.sampled_from([10, 100, 1500])),
        st.tuples(st.just("receive"), NODE, NODE, UID),
        st.tuples(st.just("aggregate"), NODE, NODE,
                  st.lists(UID, min_size=1, max_size=4)),
        st.tuples(st.just("crash"), NODE),
        st.tuples(st.just("recover"), NODE),
        st.tuples(st.just("alive"), NODE, st.booleans()),
        st.tuples(st.just("add_peer"), NODE, NODE),
        st.tuples(st.just("remove_peer"), NODE, NODE),
        st.tuples(st.just("hooks"), NODE, st.integers(0, len(HOOKS) - 1)),
        st.tuples(st.just("votes"), NODE, st.integers(1, 3),
                  st.lists(NODE, min_size=1, max_size=4)),
        st.tuples(st.just("decide"), NODE, st.integers(1, 3)),
        st.tuples(st.just("obs"), st.booleans()),
        st.tuples(st.just("advance"), st.integers(1, 40)),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(NODE_OPS)
def test_node_matches_its_reference_in_lockstep(ops):
    lockstep([_Mesh(GossipNode), _Mesh(ReferenceNode)], ops, _Mesh.apply,
             _Mesh.state, _Mesh.finish)


def test_the_meshes_are_what_the_property_needs():
    """The compiled side really is compiled, the reference side really is
    Python, one link is the reference link, and equal ids are distinct
    objects."""
    compiled, reference = _Mesh(GossipNode), _Mesh(ReferenceNode)
    node = compiled.nodes[0]
    assert type(node)._complete is not ReferenceNode._complete
    assert type(node.stats).__module__ == "repro.gossip.node"
    assert type(reference.nodes[0].stats).__module__ == (
        "tests.reference.node")
    assert sum(isinstance(link, RefLink) for link in compiled.links) == 1
    assert pid(2) == pid(2) and pid(2) is not pid(2)
    assert [n.hooks_charged for n in compiled.nodes] == [
        True, False, True, True]
