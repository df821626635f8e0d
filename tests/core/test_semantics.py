"""Tests for the combined PaxosSemantics hooks."""

import pytest

from repro.core.semantics import PaxosSemantics
from repro.gossip.node import GossipNode
from repro.paxos.messages import Aggregated2b, Decision, Phase2b, Value
from repro.sim.kernel import Simulator
from tests.conftest import mask


def _value():
    return Value("v", 0, 10)


def _votes(count, instance=1):
    return [Phase2b(instance, 1, "v", s) for s in range(count)]


def test_both_techniques_enabled_by_default():
    hooks = PaxosSemantics(n=5)
    assert hooks.enable_filtering
    assert hooks.enable_aggregation


def test_validate_uses_filter():
    hooks = PaxosSemantics(n=5)
    hooks.validate(Decision(1, 1, _value()), peer_id=2)
    assert not hooks.validate(_votes(1)[0], peer_id=2)


def test_validate_passes_all_when_filtering_disabled():
    """No filter and no validate: the node admits every message."""
    hooks = PaxosSemantics(n=5, enable_filtering=False)
    assert hooks.filter is None and hooks.validate is None


def test_aggregate_merges_when_enabled():
    hooks = PaxosSemantics(n=5)
    result = hooks.aggregate(_votes(3), peer_id=2)
    assert len(result) == 1


def test_aggregate_identity_when_disabled():
    """No aggregate: the node sends a batch as it stands."""
    assert PaxosSemantics(n=5, enable_aggregation=False).aggregate is None


@pytest.mark.parametrize("filtering, aggregation", [
    (False, True), (True, False), (False, False)])
def test_a_disabled_technique_binds_no_hook_and_is_still_charged(
        filtering, aggregation):
    """The node makes no call for a disabled technique, and charges
    ``hook_s`` as for the full semantics."""
    hooks = PaxosSemantics(5, enable_filtering=filtering,
                           enable_aggregation=aggregation)
    node = GossipNode(Simulator(seed=1), 0, hooks=hooks)
    assert (node._validate is None) is not filtering
    assert (node._aggregate is None) is not aggregation
    assert node._disaggregate == hooks.aggregator.disaggregate
    assert node.hooks_charged


def test_disaggregate_works_even_with_aggregation_disabled():
    """Peers running full semantics may still send aggregated votes."""
    hooks = PaxosSemantics(n=5, enable_aggregation=False)
    agg = Aggregated2b(1, 1, "v", senders=mask(0, 1, 2))
    assert len(hooks.disaggregate(agg)) == 3


def test_filter_state_isolated_per_instance_of_hooks():
    a = PaxosSemantics(n=5)
    b = PaxosSemantics(n=5)
    a.validate(Decision(1, 1, _value()), peer_id=2)
    assert b.validate(_votes(1)[0], peer_id=2)


def test_the_node_is_handed_the_compiled_rules_themselves():
    """With both techniques on, the hooks' validate and aggregate are the
    compiled filter's and aggregator's own bound methods, which the gossip
    node calls without entering Python."""
    hooks = PaxosSemantics(n=5)
    assert hooks.validate == hooks.filter.validate
    assert hooks.aggregate == hooks.aggregator.aggregate


def test_a_subclass_override_is_kept():
    class Dropping(PaxosSemantics):
        def validate(self, payload, peer_id):
            return False

        def aggregate(self, payloads, peer_id):
            return self.aggregator.aggregate(payloads, peer_id)[:1]

    hooks = Dropping(n=5)
    assert not hooks.validate(_votes(1)[0], peer_id=2)
    merged = hooks.aggregate(_votes(3) + _votes(2, instance=2), peer_id=2)
    assert [type(p) for p in merged] == [Aggregated2b]
