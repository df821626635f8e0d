"""Lockstep properties for the receive half of a hop, compiled vs Python.

The loss draw, the aggregated receive and the routing of a fresh payload
are compiled (``repro/sim/_kernel.c``); the Python they replaced is the
reference model in ``tests/reference/loss.py`` and
``tests/reference/node.py``.

* **The loss injector.** One random default rate, ``per_process`` map,
  stream name and stream of thousands of receivers drive the compiled
  :class:`repro.net.faults.loss.ReceiverLossInjector` and the reference
  one, each on its own simulator with the same seed. At every step: the
  same verdict, the same ``examined`` and ``dropped``, and the same
  generator state. A link carrying arrivals through each (the compiled
  one called directly, the reference one through a call) counts the
  same deliveries and losses.
* **Aggregated arrivals.** The four-node mesh of
  ``tests/properties/test_node_lockstep.py``, compiled nodes against
  reference nodes, receives ``Aggregated2b`` votes and Raft
  ``AggregatedAck`` acks (masks of one and two 64-bit words, parts fresh
  or already seen), Phase 2b votes broadcast before or after, and a
  route for the ack class. The hooks are the compiled semantics (whose
  disaggregate the compiled node runs itself), a Python wrapper around
  them (a disaggregate hook that is called), or the default hooks (the
  aggregate is its own single part); a tracer comes and goes. At every
  step: the same log (events, pushes, deliveries, routed payloads,
  tracer calls) and the same counters, CPU and sender state.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.semantics import PaxosSemantics
from repro.gossip.hooks import SemanticHooks
from repro.gossip.node import GossipNode
from repro.net.channel import DirectedLink, LinkConfig
from repro.net.faults.loss import ReceiverLossInjector
from repro.net.message import RawPayload
from repro.paxos.messages import Aggregated2b, Phase2b
from repro.raft.messages import AggregatedAck, AppendAck
from repro.sim.kernel import Simulator
from tests.properties.test_node_lockstep import NODE, _Mesh, pid
from tests.reference.lockstep import lockstep
from tests.reference.loss import ReceiverLossInjector as RefInjector
from tests.reference.node import ReferenceNode

RATE = st.one_of(st.sampled_from([0.0, 1.0, 0.5]),
                 st.floats(0.0, 1.0, allow_nan=False))
RECEIVER = st.integers(0, 7)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32), RATE,
       st.dictionaries(RECEIVER, RATE, max_size=4),
       st.sampled_from([None, "faults", "other"]),
       st.integers(0, 2 ** 32), st.integers(0, 4000))
def test_loss_injector_matches_its_reference_in_lockstep(
        seed, rate, per_process, stream, order, count):
    kwargs = {} if stream is None else {"stream": stream}
    ours = ReceiverLossInjector(Simulator(seed), rate, per_process, **kwargs)
    theirs = RefInjector(Simulator(seed), rate, per_process, **kwargs)
    assert ours.rate == theirs.rate
    assert ours.per_process == theirs._per_process
    # Thousands of arrivals, so that a verdict off at the rate's edge by
    # a thousandth of the rate shows.
    receivers = random.Random(order)
    for step in range(count):
        dst = receivers.randrange(8)
        assert ours(dst) is theirs(dst)
        assert (ours.examined, ours.dropped) == (
            theirs.examined, theirs.dropped)
        if step % 256 == 0:
            assert ours._rng.getstate() == theirs._rng.getstate()
    assert ours._rng.getstate() == theirs._rng.getstate()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32), RATE, st.integers(0, 60))
def test_a_link_drops_as_its_reference_injector_does(seed, rate, count):
    sides = []
    for cls in (ReceiverLossInjector, RefInjector):
        sim = Simulator(seed)
        injector = cls(sim, rate)
        arrived = []
        link = DirectedLink(sim, 0, 1, 1e-3,
                            LinkConfig(per_message_s=1e-5, per_byte_s=0.0),
                            lambda src, payload: arrived.append(payload.uid),
                            loss_hook=injector)
        for uid in range(count):
            payload = RawPayload(uid, 10)
            link.commit(payload, (payload,), None)
        sim.run()
        sides.append((arrived, link.stats.delivered, link.stats.dropped_loss,
                      injector.examined, injector.dropped))
    assert sides[0] == sides[1]
    assert sides[0][3] == count


#: Senders the semantics accept: enough for two-word masks.
SENDERS = 72


class WrappedSemantics(SemanticHooks):
    """The compiled semantics behind Python methods: the node calls its
    disaggregate hook instead of disaggregating itself."""

    def __init__(self):
        self.inner = PaxosSemantics(SENDERS)

    def validate(self, payload, peer_id):
        return self.inner.validate(payload, peer_id)

    def aggregate(self, payloads, peer_id):
        return self.inner.aggregate(payloads, peer_id)

    def disaggregate(self, payload):
        return self.inner.disaggregate(payload)


#: What a ``hooks`` op installs, by index.
HOOKS = (lambda: PaxosSemantics(SENDERS), WrappedSemantics, SemanticHooks)


class _AggregateMesh(_Mesh):
    """The node lockstep's mesh with every node on the compiled semantics
    for ``SENDERS`` processes."""

    def __init__(self, node_cls):
        super().__init__(node_cls)
        for node in self.nodes:
            node.hooks = HOOKS[0]()

    def apply(self, op):
        kind = op[0]
        if kind == "votes2b":
            _, index, src, instance, mask, attempt = op
            self.nodes[index]._on_link_receive(
                pid(src), Aggregated2b(instance, 1, "v", mask, attempt))
        elif kind == "acks":
            _, index, src, index_, mask, attempt = op
            self.nodes[index]._on_link_receive(
                pid(src), AggregatedAck(2, index_, mask, attempt))
        elif kind == "vote":
            _, index, instance, sender = op
            self.nodes[index].broadcast(Phase2b(instance, 1, "v", sender))
        elif kind == "ack":
            _, index, index_, sender = op
            self.nodes[index].broadcast(AppendAck(2, index_, sender))
        elif kind == "route":
            note = self.recorder.note
            self.nodes[op[1]].route(AppendAck, lambda payload, i=op[1]: (
                note("route", i, payload.uid)))
        elif kind == "hooks":
            self.nodes[op[1]].hooks = HOOKS[op[2]]()
        else:
            super().apply(op)


MASK = st.one_of(st.integers(1, (1 << 8) - 1),
                 st.integers(1, (1 << SENDERS) - 1))
AGGREGATE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("votes2b"), NODE, NODE, st.integers(1, 3), MASK,
                  st.integers(0, 1)),
        st.tuples(st.just("acks"), NODE, NODE, st.integers(1, 3), MASK,
                  st.integers(0, 1)),
        st.tuples(st.just("vote"), NODE, st.integers(1, 3),
                  st.integers(0, 7)),
        st.tuples(st.just("ack"), NODE, st.integers(1, 3),
                  st.integers(0, 7)),
        st.tuples(st.just("route"), NODE),
        st.tuples(st.just("hooks"), NODE, st.integers(0, len(HOOKS) - 1)),
        st.tuples(st.just("obs"), st.booleans()),
        st.tuples(st.just("crash"), NODE),
        st.tuples(st.just("recover"), NODE),
        st.tuples(st.just("advance"), st.integers(1, 40)),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(AGGREGATE_OPS)
def test_aggregated_arrivals_match_the_reference_in_lockstep(ops):
    lockstep([_AggregateMesh(GossipNode), _AggregateMesh(ReferenceNode)],
             ops, _AggregateMesh.apply, _Mesh.state, _Mesh.finish)


def test_the_compiled_node_disaggregates_the_semantics_aggregates_itself():
    """The property's compiled side takes the compiled path: the node's
    disaggregate hook is the aggregator's, whose parts are the votes the
    aggregate's own disaggregate() builds."""
    mesh = _AggregateMesh(GossipNode)
    node = mesh.nodes[0]
    assert node._disaggregate == node.hooks.aggregator.disaggregate
    for aggregate in (Aggregated2b(3, 1, "v", (1 << 70) | 0b101, 1),
                      AggregatedAck(2, 5, 0b110, 0)):
        ours = node._disaggregate(aggregate)
        theirs = aggregate.disaggregate()
        assert [(type(p), p.uid, p.size_bytes, p.iid) for p in ours] == [
            (type(p), p.uid, p.size_bytes, p.iid) for p in theirs]
