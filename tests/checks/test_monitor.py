"""Unit tests for the SafetyMonitor: each invariant catches its violation."""

import pytest

from repro.checks.monitor import (
    CheckedHooks,
    InvariantViolation,
    SafetyMonitor,
    Violation,
)
from repro.core.semantics import PaxosSemantics
from repro.gossip.hooks import SemanticHooks
from repro.paxos.messages import Aggregated2b, Phase2b
from tests.conftest import mask


def vote(sender, instance=1, round_=1, value_id="v1", attempt=0):
    return Phase2b(instance, round_, value_id, sender, attempt)


# -- agreement -------------------------------------------------------------

def test_conflicting_decision_raises_in_strict_mode():
    monitor = SafetyMonitor(majority=2)
    monitor.record_decision(0, 1, "v-a")
    with pytest.raises(InvariantViolation, match="agreement"):
        monitor.record_decision(1, 1, "v-b")


def test_conflicting_decision_recorded_in_lenient_mode():
    monitor = SafetyMonitor(strict=False, majority=2)
    monitor.record_decision(0, 1, "v-a")
    monitor.record_decision(1, 1, "v-b")
    assert [v.invariant for v in monitor.violations] == ["agreement"]
    assert "instance 1" in monitor.violations[0].message


def test_same_decision_from_many_learners_is_fine():
    monitor = SafetyMonitor(majority=2)
    for process_id in range(5):
        monitor.record_decision(process_id, 1, "v-a")
    monitor.record_decision(0, 2, "v-b")
    assert monitor.violations == []
    assert monitor.chosen == {1: "v-a", 2: "v-b"}


# -- ballot monotonicity ---------------------------------------------------

def test_promised_round_regression_raises():
    monitor = SafetyMonitor()
    monitor.record_promise(3, 5)
    monitor.record_promise(3, 5)      # equal is fine
    monitor.record_promise(3, 9)      # growth is fine
    with pytest.raises(InvariantViolation, match="ballot-monotonicity"):
        monitor.record_promise(3, 4)


def test_accepted_round_regression_raises():
    monitor = SafetyMonitor()
    monitor.record_accept(2, instance=7, round_=4)
    monitor.record_accept(2, instance=7, round_=6)
    monitor.record_accept(2, instance=8, round_=1)   # other instance: fine
    with pytest.raises(InvariantViolation, match="regressed"):
        monitor.record_accept(2, instance=7, round_=3)


def test_promised_rounds_tracked_per_acceptor():
    monitor = SafetyMonitor()
    monitor.record_promise(0, 9)
    monitor.record_promise(1, 2)      # a lower round on another acceptor
    assert monitor.violations == []


# -- aggregation reversibility ---------------------------------------------

class LossyHooks(SemanticHooks):
    """Broken rule: silently drops the last pending vote."""

    def aggregate(self, payloads, peer_id):
        return payloads[:-1]


class InventingHooks(SemanticHooks):
    """Broken rule: claims a vote from an acceptor that never voted."""

    def aggregate(self, payloads, peer_id):
        merged = Aggregated2b(1, 1, "v1", senders=mask(1, 2, 99))
        return [merged]

    def disaggregate(self, payload):
        if getattr(payload, "aggregated", False):
            return payload.disaggregate()
        return [payload]


def test_lossy_aggregation_detected():
    monitor = SafetyMonitor()
    hooks = CheckedHooks(LossyHooks(), monitor)
    with pytest.raises(InvariantViolation, match="aggregation-reversibility"):
        hooks.aggregate([vote(1), vote(2)], peer_id=4)


def test_inventing_aggregation_detected():
    monitor = SafetyMonitor(strict=False)
    hooks = CheckedHooks(InventingHooks(), monitor)
    hooks.aggregate([vote(1), vote(2)], peer_id=4)
    assert [v.invariant for v in monitor.violations] == [
        "aggregation-reversibility"
    ]
    assert "invented" in monitor.violations[0].message


def test_real_paxos_aggregation_passes_the_check():
    monitor = SafetyMonitor()
    hooks = CheckedHooks(PaxosSemantics(n=5), monitor)
    out = hooks.aggregate([vote(1), vote(2), vote(3)], peer_id=4)
    assert monitor.violations == []
    assert len(out) == 1 and out[0].aggregated
    # The received aggregate disaggregates back to the three originals.
    parts = hooks.disaggregate(out[0])
    assert sorted(p.sender for p in parts) == [1, 2, 3]
    assert monitor.violations == []


def test_reaggregation_of_aggregates_passes_the_check():
    monitor = SafetyMonitor()
    hooks = CheckedHooks(PaxosSemantics(n=7), monitor)
    merged = Aggregated2b(1, 1, "v1", senders=mask(1, 2))
    out = hooks.aggregate([merged, vote(3)], peer_id=5)
    assert monitor.violations == []
    assert len(out) == 1 and out[0].senders == mask(1, 2, 3)


def test_empty_disaggregation_detected():
    monitor = SafetyMonitor(strict=False)

    class SwallowingHooks(SemanticHooks):
        def disaggregate(self, payload):
            return []

    hooks = CheckedHooks(SwallowingHooks(), monitor)
    hooks.disaggregate(Aggregated2b(1, 1, "v1", senders=mask(1, 2)))
    assert [v.invariant for v in monitor.violations] == [
        "aggregation-reversibility"
    ]


# -- quorum ----------------------------------------------------------------

def test_unbacked_decision_flagged_at_finalize():
    monitor = SafetyMonitor(strict=False, majority=3)
    monitor.record_vote(0, instance=1, round_=1, value_id="v1")
    monitor.record_vote(1, instance=1, round_=1, value_id="v1")
    monitor.record_decision(0, 1, "v1")      # only 2 of 3 required votes
    violations = monitor.finalize()
    assert [v.invariant for v in violations] == ["quorum"]
    assert "majority is 3" in violations[0].message


def test_quorum_needs_distinct_voters_in_one_round():
    monitor = SafetyMonitor(strict=False, majority=3)
    # Three votes, but the same acceptor twice: no quorum.
    monitor.record_vote(0, 1, 1, "v1")
    monitor.record_vote(0, 1, 1, "v1")
    monitor.record_vote(1, 1, 1, "v1")
    # Votes split across rounds do not combine either.
    monitor.record_vote(2, 1, 2, "v1")
    monitor.record_decision(0, 1, "v1")
    assert [v.invariant for v in monitor.finalize()] == ["quorum"]


def test_quorum_backed_decision_is_clean():
    monitor = SafetyMonitor(majority=3)
    for acceptor in (0, 1, 2):
        monitor.record_vote(acceptor, instance=1, round_=1, value_id="v1")
    monitor.record_decision(4, 1, "v1")
    assert monitor.finalize() == []


def test_finalize_is_idempotent():
    monitor = SafetyMonitor(strict=False, majority=3)
    monitor.record_decision(0, 1, "v1")
    assert len(monitor.finalize()) == 1
    assert len(monitor.finalize()) == 1


# -- final state -----------------------------------------------------------

def test_raft_logs_disagreeing_at_a_committed_index_flagged_at_finalize():
    """Final-state agreement covers Raft's committed log prefix too."""
    from repro.paxos.messages import Value
    from repro.raft.messages import LogEntry
    from repro.runtime.deployment import build_deployment
    from tests.conftest import fast_config

    deployment = build_deployment(fast_config(protocol="raft", n=3))
    monitor = SafetyMonitor(strict=False).attach(deployment)
    for process, value_id in zip(deployment.processes, ("v-a", "v-b", "v-a")):
        process.log.store(LogEntry(1, 1, Value(value_id, 0, 8)))
        process.log.advance_commit(1)
    violations = monitor.finalize()
    assert [v.invariant for v in violations] == ["agreement"]
    assert "process 1" in violations[0].message
    assert "final state" in violations[0].message


# -- payload observation ---------------------------------------------------

def test_observe_payload_counts_votes_and_aggregates():
    monitor = SafetyMonitor(majority=3)
    monitor.observe_payload(0, vote(0))
    monitor.observe_payload(0, Aggregated2b(1, 1, "v1", senders=mask(1, 2)))
    monitor.record_decision(0, 1, "v1")
    assert monitor.finalize() == []
    assert monitor.messages_observed == 2


def test_violation_str_and_dict():
    violation = Violation("agreement", "instance 1 split")
    assert "agreement" in str(violation)
    assert violation.to_dict() == {
        "invariant": "agreement", "message": "instance 1 split",
    }
