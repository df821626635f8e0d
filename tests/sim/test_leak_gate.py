"""Leak gate for the compiled kernel: whole runs give back every block.

The C types (``repro/sim/_kernel.c``) count their references by hand. A
reference kept by mistake on a per-message path leaks one object per hop,
which no digest shows. ``sys.getallocatedblocks()`` does: after a warm-up
run has filled the interpreter's own caches, repeated runs of the same
scenario must leave the count where it was. The scenarios cover the
fault engine (crash, loss, partition and degrade on gossip and on the
direct star), the pull strategy, the aggregating semantic hooks (the
compiled filter and aggregator, through the fan-out and the busy-link
sender, and the compiled aggregated receive, for Paxos and for Raft),
membership churn (the membership classes routed by the node to the
liveness agents), the compiled loss injector on every link of a lossy
run, and the fault-free star, where the compiled Paxos replica does most
of the work.

A reference kept to a callback's *result* hides from whole runs: a
node's receive returns None, a loss hook a bool, a communicator and a
client None, a validate hook a bool, and references to those allocate
nothing. One link, one Paxos process and one gossip node whose callbacks
return fresh objects show it.
"""

import gc
import sys

import pytest

from repro.checks.scenarios import scenario_config
from repro.gossip.hooks import SemanticHooks
from repro.gossip.node import GossipNode
from repro.net.channel import DirectedLink, LinkConfig, connect
from repro.net.message import RawPayload
from repro.paxos.messages import ClientValue, Phase1a, Phase2a, Phase2b, Value
from repro.paxos.process import Communicator, PaxosProcess
from repro.runtime.runner import run_experiment
from repro.sim.kernel import Simulator

SCENARIOS = ["link_faults", "baseline_faults", "push_pull_loss",
             "degrade_jitter", "fig7_overlay", "baseline_star", "agg_heavy",
             "raft_semantic", "churn_smoke", "fig6_loss"]
RUNS = 4


@pytest.mark.parametrize("name", SCENARIOS)
def test_repeated_runs_do_not_grow_the_allocated_blocks(name):
    run_experiment(scenario_config(name))
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(RUNS):
        run_experiment(scenario_config(name))
    gc.collect()
    grown = sys.getallocatedblocks() - before
    # Less than one block per run: a per-message leak is thousands.
    assert grown < RUNS, "{} blocks more after {} runs of {}".format(
        grown, RUNS, name)


def test_an_arrival_releases_what_its_callbacks_return():
    sim = Simulator(seed=1)
    link = DirectedLink(sim, 0, 1, 1e-3,
                        LinkConfig(per_message_s=1e-6, per_byte_s=0.0),
                        lambda src, payload: [payload],
                        loss_hook=lambda dst: [])
    payload = RawPayload("m", 10)

    def burst():
        for _ in range(1000):
            link.commit(payload, (payload,), None)
        sim.run()

    burst()
    gc.collect()
    before = sys.getallocatedblocks()
    burst()
    gc.collect()
    grown = sys.getallocatedblocks() - before
    assert link.stats.delivered == 2000
    assert grown < 100, "{} blocks more after 1000 arrivals".format(grown)


class _FreshComm(Communicator):
    def broadcast(self, payload):
        return [payload]

    to_coordinator = phase2b = broadcast


def test_a_paxos_handle_releases_what_its_callbacks_return():
    def burst():
        process = PaxosProcess(Simulator(seed=1), 1, 3, _FreshComm(),
                               coordinator_id=1,
                               on_deliver=lambda instance, value: [value])
        process.start()
        for instance in range(1, 1001):
            value = Value(("v", instance), 0)
            process.handle(ClientValue(value, 0))
            process.handle(Phase1a(instance, instance, 0))
            process.handle(Phase2a(instance, instance, value))
            for sender in (0, 2):
                process.handle(Phase2b(instance, instance, value.value_id,
                                       sender))
        assert process.log.delivered_count == 1000

    burst()
    gc.collect()
    before = sys.getallocatedblocks()
    burst()
    gc.collect()
    grown = sys.getallocatedblocks() - before
    assert grown < 100, "{} blocks more after 1000 decisions".format(grown)


class _FreshHooks(SemanticHooks):
    """Python hooks whose results are fresh objects: a true list from
    validate, a new list (nothing merged) from aggregate."""

    def validate(self, payload, peer_id):
        return [payload]

    def aggregate(self, payloads, peer_id):
        return list(payloads)


def test_a_send_round_releases_what_its_hooks_return():
    def burst():
        sim = Simulator(seed=1)
        node = GossipNode(sim, 0, hooks=_FreshHooks())
        connect(node, GossipNode(sim, 1), 1e-3,
                LinkConfig(per_message_s=1e-3, per_byte_s=0.0))
        node.add_peers([1])
        pairs = node._fwd_pairs
        for round_ in range(1000):
            # The first commits onto the idle link; the other two queue
            # behind it and go out in one validated, aggregated round.
            for k in range(3):
                node._send(RawPayload((round_, k), 10), pairs)
            sim.run()
        assert node._senders[1].link.stats.sent == 3000

    burst()
    gc.collect()
    before = sys.getallocatedblocks()
    burst()
    gc.collect()
    grown = sys.getallocatedblocks() - before
    assert grown < 100, "{} blocks more after 1000 send rounds".format(grown)
