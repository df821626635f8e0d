"""Integration: seeded simulations run clean with the SafetyMonitor armed.

Also checks the monitor is purely observational — arming it does not
change a run's results — and that it actually observed the protocol
(votes, decisions, aggregate batches), so a green run is meaningful.
"""

import pytest

from repro.checks.monitor import InvariantViolation, SafetyMonitor
from repro.core.semantics import PaxosSemantics
from repro.runtime.deployment import build_deployment
from repro.runtime.runner import run_experiment
from tests.conftest import fast_config


def test_gossip_run_with_monitor_armed_is_clean():
    monitor = SafetyMonitor()
    report = run_experiment(fast_config(setup="gossip"), monitor=monitor)
    assert monitor.violations == []
    assert report.throughput > 0
    summary = monitor.summary()
    assert summary["messages_observed"] > 0
    assert summary["instances_decided"] > 0


def test_semantic_run_with_monitor_armed_is_clean():
    monitor = SafetyMonitor()
    run_experiment(fast_config(setup="semantic"), monitor=monitor)
    assert monitor.finalize() == []
    # Semantic gossip must actually have exercised the aggregation check.
    assert monitor.aggregates_checked > 0
    assert monitor.decisions_observed > 0


def test_baseline_run_with_monitor_armed_is_clean():
    monitor = SafetyMonitor()
    run_experiment(fast_config(setup="baseline"), monitor=monitor)
    assert monitor.violations == []
    assert monitor.summary()["instances_decided"] > 0


@pytest.mark.parametrize("setup", ["gossip", "semantic"])
def test_monitor_is_observational(setup):
    """Same seed, armed vs unarmed: byte-identical results."""
    config = fast_config(setup=setup)
    unarmed = run_experiment(config)
    armed = run_experiment(config, monitor=SafetyMonitor())
    assert armed.avg_latency_s == unarmed.avg_latency_s
    assert armed.throughput == unarmed.throughput
    assert armed.messages.received_total == unarmed.messages.received_total


def test_arming_the_monitor_binds_no_hook_an_unarmed_node_skips():
    """Only what the monitor checks is wrapped: a classic gossip node binds
    no hook, a semantic node the compiled filter's own validate."""
    gossip = build_deployment(fast_config(setup="gossip"))
    semantic = build_deployment(fast_config(setup="semantic"))
    SafetyMonitor().attach(gossip)
    SafetyMonitor().attach(semantic)
    assert {(node._validate, node._aggregate, node._disaggregate)
            for node in gossip.nodes} == {(None, None, None)}
    for node in semantic.nodes:
        assert node._validate == node.hooks.inner.filter.validate


def test_broken_aggregation_rule_caught_mid_run():
    """A vote-dropping aggregation rule trips the monitor inside the run."""

    class VoteDroppingSemantics(PaxosSemantics):
        def aggregate(self, payloads, peer_id):
            return self.aggregator.aggregate(payloads, peer_id)[:-1]

    config = fast_config(setup="semantic", rate=120.0)
    deployment = build_deployment(config)
    for node in deployment.nodes:
        node.hooks = VoteDroppingSemantics(config.n)
    monitor = SafetyMonitor().attach(deployment)
    deployment.start()
    with pytest.raises(InvariantViolation, match="aggregation-reversibility"):
        deployment.run()
    assert monitor.violations[0].invariant == "aggregation-reversibility"


def test_lossy_run_with_retransmission_is_clean():
    """Loss + retransmission reorders and duplicates aggressively; safety
    must hold regardless (the paper's §4.5 scenario)."""
    monitor = SafetyMonitor()
    run_experiment(
        fast_config(setup="semantic", loss_rate=0.1, retransmit_timeout=0.4),
        monitor=monitor,
    )
    assert monitor.finalize() == []
