"""Tests for the combined PaxosSemantics hooks."""

from repro.core.semantics import PaxosSemantics
from repro.paxos.messages import Aggregated2b, Decision, Phase2b, Value
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
    hooks = PaxosSemantics(n=5, enable_filtering=False)
    hooks.validate(Decision(1, 1, _value()), peer_id=2)
    assert hooks.validate(_votes(1)[0], peer_id=2)


def test_aggregate_merges_when_enabled():
    hooks = PaxosSemantics(n=5)
    result = hooks.aggregate(_votes(3), peer_id=2)
    assert len(result) == 1


def test_aggregate_identity_when_disabled():
    hooks = PaxosSemantics(n=5, enable_aggregation=False)
    votes = _votes(3)
    assert hooks.aggregate(votes, peer_id=2) is votes


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
