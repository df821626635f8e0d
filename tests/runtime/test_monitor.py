"""SafetyMonitor's total-order half: per-process gap-free delivery."""

import pytest

from repro.checks.monitor import InvariantViolation, SafetyMonitor
from repro.membership import MembershipConfig
from repro.net.faults.events import Crash
from repro.runtime.deployment import build_deployment
from tests.conftest import fast_config


class TestRecord:
    def test_clean_sequence_accepted(self):
        monitor = SafetyMonitor()
        for process_id in (0, 1):
            monitor.record_delivery(process_id, 1, "a")
            monitor.record_delivery(process_id, 2, "b")
        assert monitor.deliveries == 4
        assert monitor.violations == []

    def test_agreement_violation_detected(self):
        monitor = SafetyMonitor()
        monitor.record_delivery(0, 1, "a")
        with pytest.raises(InvariantViolation, match="agreement"):
            monitor.record_delivery(1, 1, "DIFFERENT")

    def test_gap_detected(self):
        monitor = SafetyMonitor()
        monitor.record_delivery(0, 1, "a")
        with pytest.raises(InvariantViolation, match="total-order"):
            monitor.record_delivery(0, 3, "c")

    def test_duplicate_instance_detected(self):
        monitor = SafetyMonitor()
        monitor.record_delivery(0, 1, "a")
        with pytest.raises(InvariantViolation, match="total-order"):
            monitor.record_delivery(0, 1, "a")

    def test_laggards(self):
        monitor = SafetyMonitor()
        monitor.record_delivery(0, 1, "a")
        monitor.record_delivery(0, 2, "b")
        monitor.record_delivery(1, 1, "a")
        assert monitor.laggards() == {1: 2}


class TestAttached:
    @pytest.mark.parametrize("kwargs", [
        dict(setup="gossip"),
        dict(setup="semantic"),
        dict(setup="semantic", protocol="raft"),
        dict(setup="gossip", spaxos=True),
        dict(setup="gossip", loss_rate=0.1, drain=3.0),
        dict(setup="gossip", faults=((1.0, Crash(0)),),
             membership=MembershipConfig(), retransmit_timeout=0.4,
             drain=4.0),
    ])
    def test_no_violation_in_real_runs(self, kwargs):
        """Whole-system runs — including loss, S-Paxos and coordinator
        failover — never trip the agreement/order monitor."""
        config = fast_config(n=7, rate=40, **kwargs)
        deployment = build_deployment(config)
        monitor = SafetyMonitor().attach(deployment)
        deployment.start()
        deployment.run()
        assert monitor.deliveries > 0

    def test_monitor_preserves_client_notifications(self):
        config = fast_config(setup="gossip", n=7, rate=40)
        deployment = build_deployment(config)
        SafetyMonitor().attach(deployment)
        deployment.start()
        deployment.run()
        assert all(c.own_decided > 0 for c in deployment.clients)
