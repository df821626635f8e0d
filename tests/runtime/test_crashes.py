"""Tests for crash-recovery fault injection (paper §2.1 failure model)."""

import pytest

from repro.net.faults.events import Crash
from repro.runtime.runner import run_deployment
from tests.conftest import fast_config


def test_schedule_validates_ordering():
    with pytest.raises(ValueError):
        Crash(1, duration=-1.0)     # recovery must follow the crash
    Crash(1)                        # permanent crash is fine


def test_minority_crash_does_not_stop_consensus():
    """Paxos tolerates a crashed minority: decisions keep flowing."""
    config = fast_config(setup="gossip", n=7, rate=40,
                         faults=((0.8, Crash(3)), (0.8, Crash(5))),
                         drain=3.0)
    deployment, report = run_deployment(config)
    assert deployment.fault_engine.stats.injections["crash"] == 2
    assert not deployment.processes[3].alive
    assert not deployment.processes[5].alive
    # Clients of live processes keep ordering values; the crashed
    # processes' clients lose the values submitted during the outage.
    live_clients = [c for c in deployment.clients
                    if c.client_id not in (3, 5)]
    assert all(c.own_decided >= 0.8 * c.submitted for c in live_clients)


def test_crashed_process_handles_nothing():
    config = fast_config(setup="gossip", n=7, rate=40,
                         faults=((0.0, Crash(4)),))
    deployment, _ = run_deployment(config)
    crashed = deployment.processes[4]
    assert crashed.stats.messages_handled == 0
    assert len(crashed.learner.decided) == 0


def test_crash_loses_submitted_values():
    """Values a client submits to a crashed process are lost (reliable
    client-process channel, but the process is not participating)."""
    config = fast_config(setup="gossip", n=7, rate=40,
                         faults=((0.0, Crash(2)),), drain=3.0)
    deployment, report = run_deployment(config)
    client = deployment.clients[2]
    assert client.submitted > 0
    assert client.own_decided == 0
    assert report.not_ordered >= client.submitted


def test_recovery_resumes_participation():
    config = fast_config(setup="gossip", n=7, rate=40,
                         faults=((0.7, Crash(4, duration=0.5)),), drain=3.0)
    deployment, _ = run_deployment(config)
    process = deployment.processes[4]
    assert deployment.fault_engine.stats.injections == {"crash": 1}
    assert process.alive
    assert deployment.nodes[4].alive
    # After recovery the process decides again (later instances at least).
    assert len(process.learner.decided) > 0


def test_recovered_client_values_order_again():
    """Values submitted after recovery are ordered; the outage window's
    values are lost (no client retry in the open-loop model)."""
    config = fast_config(setup="gossip", n=7, rate=70,
                         faults=((0.7, Crash(2, duration=0.3)),), drain=4.0)
    deployment, report = run_deployment(config)
    client = deployment.clients[2]
    assert 0 < client.own_decided < client.submitted


def test_majority_crash_halts_progress():
    """With a majority gone, nothing decided during the outage."""
    faults = tuple((0.8, Crash(i)) for i in (1, 2, 3, 4))
    config = fast_config(setup="gossip", n=7, rate=40, faults=faults,
                         drain=3.0)
    deployment, report = run_deployment(config)
    # Whatever was decided happened before/around the crash point; the
    # workload continues to 1.6s but instances stop being decided.
    assert report.not_ordered > 0


def test_coordinator_crash_halts_everything():
    config = fast_config(setup="gossip", n=7, rate=40,
                         faults=((0.8, Crash(0)),), drain=3.0)
    _, report = run_deployment(config)
    assert report.not_ordered > 0


def test_crash_recovery_with_retransmission_recovers_everything():
    """A recovered process catches up via coordinator retransmissions of
    undecided instances; values submitted while crashed are still lost,
    but the log has no holes for live clients."""
    config = fast_config(setup="semantic", n=7, rate=40,
                         faults=((0.7, Crash(4, duration=0.4)),),
                         retransmit_timeout=0.4, drain=4.0)
    deployment, report = run_deployment(config)
    live_clients = [c for c in deployment.clients if c.client_id != 4]
    for client in live_clients:
        assert client.own_decided == client.submitted


def test_raft_minority_crash_survives():
    config = fast_config(setup="semantic", protocol="raft", n=7, rate=40,
                         faults=((0.8, Crash(3)),), drain=3.0)
    deployment, report = run_deployment(config)
    live_clients = [c for c in deployment.clients if c.client_id != 3]
    assert all(c.own_decided >= 0.8 * c.submitted for c in live_clients)


def test_baseline_crash_supported_too():
    config = fast_config(setup="baseline", n=7, rate=40,
                         faults=((0.8, Crash(3)),), drain=3.0)
    deployment, report = run_deployment(config)
    live_clients = [c for c in deployment.clients if c.client_id != 3]
    assert all(c.own_decided >= 0.8 * c.submitted for c in live_clients)
