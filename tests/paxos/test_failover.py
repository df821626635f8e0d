"""Tests for coordinator failover (round change beyond startup).

The paper keeps a fixed coordinator; this extension exercises the part of
Paxos the fail-free deployment never reaches — a backup promoted with a
higher round, re-running Phase 1, and re-proposing in-flight values — over
the actual gossip substrate with a crashed coordinator. The crash comes
from the fault plan, the promotion from the membership layer's
heartbeat-driven election.
"""

from repro.membership import MembershipConfig
from repro.net.faults.events import Crash
from repro.runtime.runner import run_deployment
from tests.conftest import fast_config


def _failover_config(faults=((1.0, Crash(0)),), **overrides):
    """The coordinator (process 0) dies mid-workload by default."""
    defaults = dict(
        setup="gossip", n=7, rate=40, warmup=0.6, duration=1.4, drain=4.0,
        seed=9,
        faults=faults,
        membership=MembershipConfig(),
        retransmit_timeout=0.4,
    )
    defaults.update(overrides)
    return fast_config(**defaults)


def test_backup_takes_over_after_coordinator_crash():
    deployment, report = run_deployment(_failover_config())
    takeovers = [p for p in deployment.processes if p.takeovers > 0]
    assert takeovers, "no backup took over"
    new_coordinator = takeovers[0]
    assert new_coordinator.process_id != 0
    assert new_coordinator.coordinator is not None
    assert new_coordinator.coordinator.phase1_complete
    assert new_coordinator.coordinator.round > 1


def test_progress_resumes_after_failover():
    """Values submitted after the takeover are ordered."""
    deployment, report = run_deployment(_failover_config())
    # Every live client eventually orders values again: decisions exist
    # beyond what the dead coordinator could have proposed by t=1.0.
    live = [p for p in deployment.processes if p.process_id != 0]
    decided_counts = [len(p.learner.decided) for p in live]
    assert max(decided_counts) > 40 * 1.0 * 0.8  # > pre-crash workload


def test_no_failover_without_silence():
    """A healthy coordinator never gets preempted."""
    config = _failover_config(faults=())
    deployment, report = run_deployment(config)
    assert all(p.takeovers == 0 for p in deployment.processes)
    assert report.not_ordered == 0


def test_safety_across_failover():
    """All processes deliver the same gap-free sequence: the round change
    never decides two values for one instance."""
    deployment, _ = run_deployment(_failover_config())
    logs = []
    for process in deployment.processes[1:]:  # 0 is crashed
        decided = process.learner.decided
        logs.append([(i, decided[i].value_id) for i in sorted(decided)])
    reference = max(logs, key=len)
    for log in logs:
        prefix = min(len(log), len(reference))
        assert log[:prefix] == reference[:prefix]


def test_in_flight_values_reproposed():
    """Values forwarded just before the crash are decided by the new
    coordinator (possibly duplicated — never lost)."""
    deployment, report = run_deployment(_failover_config())
    # Clients of live processes keep their loss bounded to the outage
    # window: the vast majority of their submissions get ordered.
    live_clients = [c for c in deployment.clients if c.client_id != 0]
    for client in live_clients:
        assert client.own_decided >= 0.7 * client.submitted


def test_election_promotes_lowest_alive_id():
    deployment, _ = run_deployment(_failover_config(seed=11))
    takeovers = sorted(p.process_id for p in deployment.processes
                       if p.takeovers > 0)
    # The election's first candidate is the lowest alive member: id 1.
    assert takeovers[0] == 1


def test_crash_of_already_failed_over_coordinator():
    """The takeover coordinator dies too; a third process takes over.

    The second failover must start from the *new* round space — the
    surviving processes observed the first takeover's round, so the third
    coordinator's round must exceed both.
    """
    deployment, report = run_deployment(_failover_config(
        faults=((1.0, Crash(0)), (2.0, Crash(1))),
        duration=2.2, drain=5.0,
    ))
    survivors = [p for p in deployment.processes if p.process_id > 1]
    second = [p for p in survivors if p.takeovers > 0]
    assert second, "no third coordinator emerged after the second crash"
    first_round = deployment.processes[1].coordinator.round
    active = [p for p in second if p.coordinator is not None]
    assert active
    assert all(p.coordinator.round > first_round for p in active)
    # Progress resumed after the second failover as well.
    decided = max(len(p.learner.decided) for p in survivors)
    assert decided > 40 * 2.0 * 0.5


def test_coordinator_crash_at_t0_before_any_decision():
    """The coordinator dies at t=0, before Phase 1 ever completes.

    A backup must bootstrap consensus from nothing: no decisions exist,
    no instance was ever started, and the learners' state is empty when
    the takeover fires.
    """
    deployment, report = run_deployment(_failover_config(
        faults=((0.0, Crash(0)),),
    ))
    assert len(deployment.processes[0].learner.decided) == 0
    takeovers = [p for p in deployment.processes if p.takeovers > 0]
    assert takeovers, "no backup bootstrapped the crashed-at-birth cluster"
    new_coordinator = takeovers[0]
    assert new_coordinator.coordinator.phase1_complete
    # The new coordinator starts at the very first instance (1) and the
    # decided sequence is gap-free from there.
    decided = new_coordinator.learner.decided
    assert decided, "no value was ever ordered"
    assert min(decided) == 1
    assert sorted(decided) == list(range(1, len(decided) + 1))
    # Live clients still get the vast majority of their values ordered.
    live_clients = [c for c in deployment.clients if c.client_id != 0]
    for client in live_clients:
        assert client.own_decided >= 0.7 * client.submitted
