"""End-to-end membership churn over the live gossip substrate.

Each test runs a small experiment with the membership layer configured
and a churn fault plan, with the strict :class:`SafetyMonitor` armed —
so any agreement/monotonicity/quorum violation raises from inside the
offending simulated event.
"""

import pytest

from repro.checks.monitor import SafetyMonitor
from repro.membership import ALIVE, DEAD, LEFT, MembershipConfig
from repro.net.faults.events import Crash, FaultPlan, Join, Leave, Rejoin
from repro.obs import ObsConfig
from repro.runtime.runner import run_deployment
from tests.conftest import fast_config


def _membership(**overrides):
    defaults = dict(
        heartbeat_interval=0.04,
        suspicion_timeout=0.15,
        dead_timeout=0.3,
        election_backoff=0.15,
        election_backoff_max=0.6,
        election_jitter=0.03,
    )
    defaults.update(overrides)
    return MembershipConfig(**defaults)


def _churn_config(**overrides):
    defaults = dict(retransmit_timeout=0.25, drain=2.5)
    defaults.update(overrides)
    return fast_config(**defaults)


def test_quiet_membership_run_decides_everything():
    """Membership armed, no churn: heartbeats must not disturb consensus."""
    config = _churn_config(membership=_membership())
    deployment, report = run_deployment(config, monitor=SafetyMonitor())
    assert report.not_ordered == 0
    membership = report.messages.membership
    assert membership["heartbeats_sent"] > 0
    assert membership["dead_declared"] == 0
    assert membership["elections"] == 0
    assert deployment.membership.view.epoch == 0


def test_membership_counters_absent_without_config():
    _, report = run_deployment(_churn_config())
    assert report.messages.membership == {}


def test_join_mid_run():
    config = _churn_config(
        membership=_membership(initial_members=tuple(range(6))),
        faults=FaultPlan([(0.8, Join(6))]),
    )
    deployment, report = run_deployment(config, monitor=SafetyMonitor())
    view = deployment.membership.view
    assert view.is_member(6)
    assert view.state(6) == ALIVE
    assert view.epochs()[0] == (0, 0.0, (0, 1, 2, 3, 4, 5))
    assert view.epochs()[1][2] == (0, 1, 2, 3, 4, 5, 6)
    # The joiner was wired into the overlay and gossips: it received
    # traffic and decided values.
    assert deployment.nodes[6].stats.received > 0
    assert len(deployment.processes[6].learner.decided) > 0
    assert report.messages.membership["joins"] == 1


def test_graceful_leave_repairs_overlay():
    config = _churn_config(
        membership=_membership(),
        faults=FaultPlan([(0.9, Leave(5))]),
    )
    deployment, report = run_deployment(config, monitor=SafetyMonitor())
    view = deployment.membership.view
    assert view.state(5) == LEFT
    assert not deployment.nodes[5].alive
    membership = report.messages.membership
    assert membership["leaves"] == 1
    assert membership["dead_reports_sent"] == 0   # graceful, not a death
    assert membership["edges_removed"] > 0
    # No member gossips to the leaver after the repair (a node's links
    # persist — they are created lazily and never destroyed — but the
    # gossip fan-out no longer includes the leaver).
    for pid, node in enumerate(deployment.nodes):
        if pid != 5:
            assert 5 not in node.peers()
    assert deployment.nodes[5].peers() == []


def test_rejoin_bumps_incarnation_and_restores_liveness():
    config = _churn_config(
        membership=_membership(),
        faults=FaultPlan([(0.7, Leave(5)), (1.2, Rejoin(5))]),
    )
    deployment, report = run_deployment(config, monitor=SafetyMonitor())
    view = deployment.membership.view
    assert view.state(5) == ALIVE
    assert view.incarnation(5) == 1
    assert deployment.nodes[5].alive
    membership = report.messages.membership
    assert membership["leaves"] == 1
    assert membership["rejoins"] == 1
    # The rejoined member catches decisions made while it was away.
    assert len(deployment.processes[5].learner.decided) > 0


@pytest.mark.parametrize("protocol", ["paxos", "raft"])
def test_leader_crash_triggers_heartbeat_election(protocol):
    config = _churn_config(
        protocol=protocol,
        membership=_membership(),
        faults=FaultPlan([(0.8, Crash(0))]),
    )
    deployment, report = run_deployment(config, monitor=SafetyMonitor())
    service = deployment.membership
    assert service.view.state(0) == DEAD
    assert service.leader_id != 0
    membership = report.messages.membership
    assert membership["dead_declared"] == 1
    assert membership["elections"] >= 1
    leader = deployment.processes[service.leader_id]
    if protocol == "paxos":
        assert leader.coordinator is not None
        assert leader.coordinator.round > 1
    else:
        assert leader.is_leader
        assert leader.current_term > 1
    # Progress resumed under the elected successor: decisions exist beyond
    # what the dead leader could have driven by t=0.8.
    if protocol == "paxos":
        decided = [len(p.learner.decided)
                   for p in deployment.processes if p.process_id != 0]
        assert max(decided) > 40 * 0.8 * 0.5
    assert report.decided_in_window > 0


def test_dead_leader_rejoins_under_successor():
    config = _churn_config(
        membership=_membership(),
        faults=FaultPlan([(0.8, Crash(0)), (1.3, Rejoin(0))]),
    )
    deployment, report = run_deployment(config, monitor=SafetyMonitor())
    view = deployment.membership.view
    assert view.state(0) == ALIVE
    assert view.incarnation(0) == 1
    assert deployment.membership.leader_id != 0
    # The rejoined ex-coordinator abdicated instead of competing with a
    # stale round forever.
    assert deployment.processes[0].coordinator is None
    assert not deployment.processes[0].is_coordinator


def test_monitor_stamps_post_churn_ballots_with_their_epoch():
    config = _churn_config(
        membership=_membership(),
        faults=FaultPlan([(0.8, Crash(0))]),
    )
    monitor = SafetyMonitor()
    deployment, _ = run_deployment(config, monitor=monitor)
    assert not monitor.violations
    epochs = set(monitor._ballot_epochs.values())
    # Ballots were issued both before the churn (epoch 0) and by the
    # elected successor afterwards (a later epoch).
    assert 0 in epochs
    assert any(epoch > 0 for epoch in epochs)


def test_election_retransmissions_attributed_separately():
    config = _churn_config(
        membership=_membership(),
        loss_rate=0.05,
        faults=FaultPlan([(0.8, Crash(0))]),
    )
    _, report = run_deployment(config, monitor=SafetyMonitor())
    messages = report.messages
    assert messages.retransmissions == (
        messages.retransmissions_loss + messages.retransmissions_election)
    # The successor re-proposed the in-flight values it observed.
    assert messages.reproposals_election > 0


def test_retransmissions_outlive_the_coordinator_that_issued_them():
    """The lossy_failover_n13 shape: the coordinator re-issues Phase 1a
    (the timeout is shorter than a WAN round trip), crashes, rejoins and
    ``step_down()`` discards its Coordinator object — the count stays."""
    config = _churn_config(
        coordinator_id=6, retransmit_timeout=0.1,
        membership=_membership(),
        faults=FaultPlan([(0.5, Crash(6)), (1.2, Rejoin(6))]),
    )
    deployment, report = run_deployment(config, monitor=SafetyMonitor(),
                                        obs=ObsConfig())
    messages = report.messages
    assert messages.retransmissions >= 1
    assert deployment.processes[6].coordinator is None      # stepped down
    assert deployment.processes[6].stats.retransmissions >= 1
    assert messages.retransmissions_loss >= 0
    assert min(report.timeline["retransmissions"]) >= 0
    assert sum(report.timeline["retransmissions"]) == messages.retransmissions
